package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sync"

	"orion"
)

// The stdio front-end: JSON lines in, JSON lines out. Each input line
// is one Request; each output line is one Response. Requests are
// handled concurrently (admission control still bounds the actual
// simulation work), so responses may arrive out of order — clients
// correlate by the echoed "id". A malformed line yields a bad_request
// response, never a dead loop.

// ServeLines reads requests from r until EOF (or ctx cancellation) and
// writes one response line per request to w. It returns when the input
// is exhausted and every in-flight response has been written.
func (s *Server) ServeLines(ctx context.Context, r io.Reader, w io.Writer) error {
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	out := bufio.NewWriter(w)
	emit := func(resp *Response) {
		data, err := json.Marshal(resp)
		if err != nil {
			data, _ = json.Marshal(failResp(resp.ID, orion.CodeInternal, "serve: encoding response"))
		}
		wmu.Lock()
		out.Write(data)
		out.WriteByte('\n')
		out.Flush()
		wmu.Unlock()
	}

	sc := bufio.NewScanner(r)
	// One request per line, up to the protocol bound (+1 so an oversized
	// line is reported as too large rather than as a scanner error).
	sc.Buffer(make([]byte, 0, 64*1024), MaxRequestBytes+1)
	for sc.Scan() {
		if ctx.Err() != nil {
			break
		}
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		if len(line) == 0 {
			continue
		}
		req, err := ParseRequest(line)
		if err != nil {
			// Recover the correlation id if the line was at least JSON.
			var shell struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(line, &shell)
			emit(failResp(shell.ID, CodeBadRequest, err.Error()))
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			emit(s.Handle(ctx, req))
		}()
	}
	wg.Wait()
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			emit(failResp("", CodeBadRequest, "serve: request line exceeds the protocol limit"))
			return nil
		}
		return err
	}
	return nil
}
