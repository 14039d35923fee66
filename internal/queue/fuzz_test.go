package queue

import (
	"errors"
	"testing"
)

// FuzzQueueLine throws arbitrary file images at the queue-journal
// decoder — the claim/heartbeat/done line codec plus the replay state
// machine. Decoding must never panic: an image is either decoded
// (possibly dropping a torn trailing line) into a state whose shape
// matches its header, or rejected with the typed ErrQueue.
func FuzzQueueLine(f *testing.F) {
	hdr := `{"version":2,"config_digest":"ab","rates":[0.1,0.2]}` + "\n"
	f.Add([]byte(""))
	f.Add([]byte(hdr))
	f.Add([]byte(hdr + `{"t":"claim","index":0,"w":"w1","at_ms":5,"lease_ms":100}` + "\n"))
	f.Add([]byte(hdr +
		`{"t":"claim","index":1,"w":"w1","at_ms":5,"lease_ms":100}` + "\n" +
		`{"t":"beat","index":1,"w":"w1","at_ms":50,"lease_ms":100}` + "\n" +
		`{"t":"done","index":1,"w":"w1","at_ms":90,"point":{"index":1},"final":true}` + "\n"))
	f.Add([]byte(hdr + `{"t":"claim","index":0,"w":"w1","at_ms":5,"lease_ms":100}` + "\n" +
		`{"t":"drop","index":0,"w":"w1"}` + "\n" + `{"t":"reset","index":0}` + "\n"))
	f.Add([]byte(hdr + `{"t":"claim","index":0` /* torn tail */))
	f.Add([]byte(hdr + `{"t":"bogus","index":0}` + "\n" + `{"t":"claim","index":0,"w":"x","at_ms":1,"lease_ms":1}` + "\n"))
	f.Add([]byte(`{"version":1,"config_digest":"ab","rates":[0.1]}` + "\n"))
	f.Add([]byte("not a header\nmore\n"))
	f.Add([]byte("\n\n"))
	// Retired v1 single-process journals: every shape must hit the
	// version rejection, never be misread as queue records.
	f.Add([]byte(`{"version":1,"config_digest":"ab","rates":[0.1]}` + "\n" +
		`{"index":0,"rate":0.1,"err":"x","err_kind":"saturated"}` + "\n"))
	f.Add([]byte(`{"version":1}` + "\n" + `{"index":0` /* torn tail */))
	f.Add([]byte(`{"version":1}` + "\n" + `garbage` + "\n" + `{"index":1}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			if !errors.Is(err, ErrQueue) {
				t.Fatalf("rejection lacks ErrQueue: %v", err)
			}
			return
		}
		if len(st.Points) != len(st.Header.Rates) {
			t.Fatalf("state has %d points for %d rates", len(st.Points), len(st.Header.Rates))
		}
		for i, p := range st.Points {
			switch p.Status {
			case Pending, Claimed, Done:
			default:
				t.Fatalf("point %d has invalid status %d", i, int(p.Status))
			}
			if p.Status == Done && len(p.Payload) == 0 {
				t.Fatalf("point %d done without payload", i)
			}
			if p.Status == Claimed && p.Holder == "" {
				t.Fatalf("point %d claimed without holder", i)
			}
		}
	})
}
