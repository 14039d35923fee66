package orion

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSweepDistributedMatchesSweep is the core distributed-correctness
// contract: in-process workers pulling from the shared queue journal
// produce results bit-identical to a sequential Sweep.
func TestSweepDistributedMatchesSweep(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.05, 0.08, 0.11}
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.wal")
	dist, err := SweepWith(context.Background(), cfg, rates, SweepOptions{
		Journal: path, Workers: 3, Lease: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if dist[i] == nil {
			t.Fatalf("rate %g: nil distributed result", rates[i])
		}
		if fingerprint(clean[i]) != fingerprint(dist[i]) {
			t.Errorf("rate %g: distributed result differs from sequential sweep", rates[i])
		}
	}
	st, err := JournalStatus(path)
	if err != nil || len(st) != len(rates) {
		t.Fatalf("JournalStatus on queue journal = %v, %v; want %d points", st, err, len(rates))
	}
	for _, p := range st {
		if p.State != "done" {
			t.Fatalf("point %d = %+v, want done", p.Index, p)
		}
	}
}

// TestSweepJournalChaos is the in-process chaos test of a multi-process
// sweep: a journaled SweepWith merges (as orion-sweep -journal does)
// while four joined workers (orion-sweep -worker) run the same queue,
// two of which die SIGKILL-style (no drop, no commit) after claiming a
// point. Their leases expire, the survivors steal the abandoned points,
// and the merged results must still be bit-identical to a sequential
// Sweep. Run at two different crash points to vary which points get
// abandoned.
func TestSweepJournalChaos(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	for _, crashAfter := range []int{1, 2} {
		t.Run(strings.Replace("crashAfter=N", "N", string(rune('0'+crashAfter)), 1), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.wal")
			if err := CreateSweepQueue(path, cfg, rates, false); err != nil {
				t.Fatal(err)
			}
			const lease = 300 * time.Millisecond
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for w := 0; w < 4; w++ {
				opts := SweepWorkerOptions{Path: path, Lease: lease, WorkerID: string(rune('a' + w))}
				if w < 2 {
					opts.dieAfterClaims = crashAfter
				}
				wg.Add(1)
				go func(w int, opts SweepWorkerOptions) {
					defer wg.Done()
					_, errs[w] = SweepWorker(context.Background(), cfg, rates, opts)
				}(w, opts)
			}
			// The merger joins the queue the joined workers already run
			// and returns once every point is settled.
			results, err := SweepWith(context.Background(), cfg, rates, SweepOptions{
				Journal: path, Resume: true, Workers: 1, Lease: lease,
			})
			wg.Wait()
			for w := 0; w < 2; w++ {
				// A chaos worker normally dies mid-claim; under heavy load
				// (e.g. the race detector) it can lose every claim race and
				// exit cleanly when the survivors drain the queue. Both are
				// fine — anything else is a real failure.
				if errs[w] != nil && !errors.Is(errs[w], errWorkerCrashed) {
					t.Fatalf("chaos worker %d: got %v, want simulated crash or clean exit", w, errs[w])
				}
			}
			for w := 2; w < 4; w++ {
				if errs[w] != nil {
					t.Fatalf("surviving worker %d failed: %v", w, errs[w])
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range rates {
				if results[i] == nil {
					t.Fatalf("rate %g: nil result after chaos", rates[i])
				}
				if fingerprint(clean[i]) != fingerprint(results[i]) {
					t.Errorf("rate %g: chaos-merged result differs from sequential sweep", rates[i])
				}
			}
		})
	}
}

// TestSweepWorkerLeaseLost pauses a worker between its claim and its
// point run for longer than its lease (the SIGSTOP signature), lets a
// rival steal and commit the point, and requires the victim to discard
// its own result — counted in WorkerStats.LeasesLost, with the rival's
// commit the only one that takes effect.
func TestSweepWorkerLeaseLost(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.05}
	path := filepath.Join(t.TempDir(), "sweep.wal")
	if err := CreateSweepQueue(path, cfg, rates, false); err != nil {
		t.Fatal(err)
	}

	rivalDone := make(chan WorkerStats, 1)
	victimOpts := SweepWorkerOptions{
		Path: path, WorkerID: "victim", Lease: 50 * time.Millisecond,
		holdPoint: func(int) {
			// Paused past the lease. Start the rival only now, so the
			// claim order is deterministic: victim first, rival steals.
			go func() {
				stats, err := SweepWorker(context.Background(), cfg, rates, SweepWorkerOptions{
					Path: path, WorkerID: "rival", Lease: time.Minute, Poll: 5 * time.Millisecond,
				})
				if err != nil {
					t.Errorf("rival: %v", err)
				}
				rivalDone <- stats
			}()
			time.Sleep(250 * time.Millisecond)
		},
	}
	stats, err := SweepWorker(context.Background(), cfg, rates, victimOpts)
	if err != nil {
		t.Fatal(err)
	}
	rival := <-rivalDone
	if stats.LeasesLost != 1 || stats.Commits != 0 {
		t.Fatalf("victim stats = %+v, want exactly one lost lease and no commits", stats)
	}
	if rival.Steals != 1 || rival.Commits != 1 {
		t.Fatalf("rival stats = %+v, want one steal and one commit", rival)
	}
	// And the rival's commit is the one the merger reads back: a resumed
	// journal sweep keeps it and re-runs nothing.
	var reruns atomic.Int32
	results, err := SweepWith(context.Background(), cfg, rates, SweepOptions{
		Journal: path, Resume: true, Lease: time.Minute,
		Run: func(ctx context.Context, cfg Config, rate float64) (*Result, error) {
			reruns.Add(1)
			return RunPoint(ctx, cfg, rate)
		},
	})
	if err != nil || results[0] == nil || reruns.Load() != 0 {
		t.Fatalf("merge after lease loss: %v, %v, %d re-runs", results, err, reruns.Load())
	}
}

// TestDistributedTypedErrors covers the rejection taxonomy end to end:
// a worker joining a queue for a different configuration or rate list
// (ErrStaleJournal, also ErrJournal), a malformed queue file
// (ErrJournal), and a direct lease-loss commit (ErrLeaseLost).
func TestDistributedTypedErrors(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.06}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.wal")
	if err := CreateSweepQueue(path, cfg, rates, false); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Traffic.Seed++
	if _, err := SweepWorker(context.Background(), other, rates, SweepWorkerOptions{Path: path}); !errors.Is(err, ErrStaleJournal) || !errors.Is(err, ErrJournal) {
		t.Fatalf("config mismatch: got %v, want ErrStaleJournal wrapping ErrJournal", err)
	}
	if _, err := SweepWorker(context.Background(), cfg, []float64{0.5}, SweepWorkerOptions{Path: path}); !errors.Is(err, ErrStaleJournal) {
		t.Fatalf("rate-list mismatch: got %v, want ErrStaleJournal", err)
	}

	// Schema-invalid interior record: ErrJournal for workers and status
	// alike.
	bad := filepath.Join(dir, "bad.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data) + `{"t":"claim","index":99,"w":"x","at_ms":1,"lease_ms":1}` + "\n" +
		`{"t":"reset","index":0}` + "\n"
	if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SweepWorker(context.Background(), cfg, rates, SweepWorkerOptions{Path: bad}); !errors.Is(err, ErrJournal) {
		t.Fatalf("malformed queue: got %v, want ErrJournal", err)
	}
	if _, err := JournalStatus(bad); !errors.Is(err, ErrJournal) {
		t.Fatalf("JournalStatus on malformed queue: got %v, want ErrJournal", err)
	}

	// Direct lease loss through the queue layer, with orion's sentinel.
	qf, err := openQueue(cfg, rates, path)
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	if won, _, err := qf.TryClaim(0, "w1", time.Millisecond); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	time.Sleep(20 * time.Millisecond)
	if won, _, err := qf.TryClaim(0, "w2", time.Minute); err != nil || !won {
		t.Fatalf("steal: won=%v err=%v", won, err)
	}
	if err := qf.Commit(0, "w1", []byte(`{"index":0}`), true); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale commit: got %v, want ErrLeaseLost", err)
	}
}

// TestSweepDistributedRejectsMismatch: resuming (orion-sweep -journal
// -resume) a journal written by another sweep — different config digest
// or rate list — fails with ErrStaleJournal wrapping ErrJournal before
// any point runs, and a journal with a schema-invalid interior record is
// rejected by resume and the status report alike. (Unparsable lines are
// not corruption in the multi-writer format: they are skipped as torn.)
func TestSweepDistributedRejectsMismatch(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.06}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.wal")
	opts := SweepOptions{Journal: path, Workers: 1, Lease: time.Second}
	if _, err := SweepWith(context.Background(), cfg, rates, opts); err != nil {
		t.Fatal(err)
	}

	opts.Resume = true
	other := cfg
	other.Traffic.Seed++
	if _, err := SweepWith(context.Background(), other, rates, opts); !errors.Is(err, ErrStaleJournal) || !errors.Is(err, ErrJournal) {
		t.Fatalf("config mismatch: got %v, want ErrStaleJournal wrapping ErrJournal", err)
	}
	if _, err := SweepWith(context.Background(), cfg, []float64{0.02, 0.07}, opts); !errors.Is(err, ErrStaleJournal) || !errors.Is(err, ErrJournal) {
		t.Fatalf("rate-list mismatch: got %v, want ErrStaleJournal wrapping ErrJournal", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want header + records", len(lines))
	}
	corrupt := filepath.Join(dir, "corrupt.wal")
	body := lines[0] + `{"t":"commit","index":99,"w":"x"}` + "\n" + strings.Join(lines[1:], "") + "\n"
	if err := os.WriteFile(corrupt, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Journal = corrupt
	if _, err := SweepWith(context.Background(), cfg, rates, opts); !errors.Is(err, ErrJournal) {
		t.Fatalf("corrupt interior line: got %v, want ErrJournal", err)
	}
	if _, err := JournalStatus(corrupt); !errors.Is(err, ErrJournal) {
		t.Fatalf("JournalStatus on corrupt journal: got %v, want ErrJournal", err)
	}
}

// TestJournalStatus covers the operator-facing per-point report: one
// committed, one claimed with an expired lease, one pending.
func TestJournalStatus(t *testing.T) {
	cfg := fastConfig(0)
	dir := t.TempDir()
	rates := []float64{0.02, 0.05, 0.08}
	v2 := filepath.Join(dir, "v2.wal")
	if err := CreateSweepQueue(v2, cfg, rates, false); err != nil {
		t.Fatal(err)
	}
	qf, err := openQueue(cfg, rates, v2)
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	if won, _, err := qf.TryClaim(0, "w1", time.Minute); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	if err := qf.Commit(0, "w1", []byte(`{"index":0,"result":{"AvgLatency":1}}`), true); err != nil {
		t.Fatal(err)
	}
	if won, _, err := qf.TryClaim(1, "w2", time.Millisecond); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	time.Sleep(10 * time.Millisecond)
	st, err := JournalStatus(v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 3 {
		t.Fatalf("v2 status has %d points, want 3", len(st))
	}
	if st[0].State != "done" || st[0].Rate != 0.02 {
		t.Fatalf("point 0 = %+v, want done", st[0])
	}
	if st[1].State != "claimed" || st[1].Worker != "w2" || !st[1].LeaseExpired {
		t.Fatalf("point 1 = %+v, want claimed by w2 with expired lease", st[1])
	}
	if st[2].State != "pending" {
		t.Fatalf("point 2 = %+v, want pending", st[2])
	}

	// Missing journal: empty report, no error.
	if st, err := JournalStatus(filepath.Join(dir, "nope.wal")); err != nil || len(st) != 0 {
		t.Fatalf("missing journal: %v, %v", st, err)
	}
}

// TestSweepDistributedResumeReopensTransients: resume re-opens and
// re-runs the points committed as transient failures — a timeout, and
// the "failed" catch-all of queue files written before the shared
// failure vocabulary. A committed saturation is final: it is kept, and
// its err_kind rebuilds an error typed under errors.Is.
func TestSweepDistributedResumeReopensTransients(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.05}
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind  string
		final bool
	}{
		{"timeout", false},
		{"failed", false},
		{"saturated", true},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.wal")
			if err := CreateSweepQueue(path, cfg, rates, false); err != nil {
				t.Fatal(err)
			}
			// Hand-commit point 0 as a failure of this kind, with the
			// finality a worker gives it; point 1 stays pending.
			qf, err := openQueue(cfg, rates, path)
			if err != nil {
				t.Fatal(err)
			}
			if won, _, err := qf.TryClaim(0, "w1", time.Minute); err != nil || !won {
				t.Fatalf("claim: won=%v err=%v", won, err)
			}
			rec := fmt.Sprintf(`{"index":0,"rate":0.02,"err":"committed %s","err_kind":%q}`, tc.kind, tc.kind)
			if err := qf.Commit(0, "w1", []byte(rec), tc.final); err != nil {
				t.Fatal(err)
			}
			qf.Close()

			var reran atomic.Bool
			results, err := SweepWith(context.Background(), cfg, rates, SweepOptions{
				Journal: path, Workers: 2, Lease: time.Second, Resume: true,
				Run: func(ctx context.Context, cfg Config, rate float64) (*Result, error) {
					if rate == rates[0] {
						reran.Store(true)
					}
					return RunPoint(ctx, cfg, rate)
				},
			})
			if results[1] == nil || fingerprint(clean[1]) != fingerprint(results[1]) {
				t.Errorf("pending point: result differs from sequential sweep")
			}
			if !tc.final {
				if err != nil || !reran.Load() {
					t.Fatalf("transient %q point: re-ran %v, err %v; want re-run and settled", tc.kind, reran.Load(), err)
				}
				if results[0] == nil || fingerprint(clean[0]) != fingerprint(results[0]) {
					t.Errorf("rate %g: resumed result differs from sequential sweep", rates[0])
				}
				return
			}
			var serr *SweepError
			if reran.Load() || results[0] != nil || !errors.Is(err, ErrSaturated) ||
				!errors.As(err, &serr) || fmt.Sprint(serr.Points) != "[0]" {
				t.Fatalf("final %q point: re-ran %v, result %v, err %v; want kept, typed, at point 0", tc.kind, reran.Load(), results[0], err)
			}
		})
	}
}

// TestSweepDistributedResumeAfterCrash reconstructs a SIGKILL: the
// queue journal cut off after its second committed point, with the next
// record torn mid-write and the unfinished points still claimed by dead
// workers. The resumed sweep must keep the committed points, steal the
// orphaned claims once their leases lapse, and return results
// bit-identical to an uninterrupted sweep.
func TestSweepDistributedResumeAfterCrash(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.06, 0.10, 0.14}
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	opts := SweepOptions{Journal: full, Workers: 2, Lease: 100 * time.Millisecond}
	if _, err := SweepWith(context.Background(), cfg, rates, opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	cut, done := 0, 0
	for cut < len(lines) && done < 2 {
		if strings.Contains(lines[cut], `"t":"done"`) {
			done++
		}
		cut++
	}
	if done < 2 || cut >= len(lines)-1 {
		t.Fatalf("journal too short to crash after two commits: %d lines", len(lines))
	}
	crashed := filepath.Join(dir, "crashed.wal")
	torn := lines[cut][:len(lines[cut])/2]
	if err := os.WriteFile(crashed, []byte(strings.Join(lines[:cut], "")+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := JournalStatus(crashed)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[int]bool{}
	for _, p := range before {
		if p.State == "done" {
			kept[p.Index] = true
		}
	}
	if len(kept) != 2 {
		t.Fatalf("crash image settles %d points, want 2: %+v", len(kept), before)
	}

	var reruns atomic.Int64
	opts.Journal, opts.Resume = crashed, true
	opts.Run = func(ctx context.Context, cfg Config, rate float64) (*Result, error) {
		for i, r := range rates {
			if r == rate && kept[i] {
				t.Errorf("rate %g: committed point re-run on resume", rate)
			}
		}
		reruns.Add(1)
		return RunPoint(ctx, cfg, rate)
	}
	resumed, err := SweepWith(context.Background(), cfg, rates, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reruns.Load(); got != int64(len(rates)-2) {
		t.Fatalf("resume ran %d points, want %d", got, len(rates)-2)
	}
	for i := range rates {
		if resumed[i] == nil || fingerprint(clean[i]) != fingerprint(resumed[i]) {
			t.Errorf("rate %g: resumed result differs from clean sweep", rates[i])
		}
	}
}

// TestSweepDistributedResumeKeepsDeterministicFailures commits a sweep
// with a deliberately saturating point and requires resume to keep the
// committed ErrSaturated — typed under errors.Is across the crash
// boundary — instead of re-running the hopeless point.
func TestSweepDistributedResumeKeepsDeterministicFailures(t *testing.T) {
	// MaxCycles is tight enough that the 0.01 point cannot even inject
	// its 300 samples (0.16 packets/cycle network-wide needs ~1900
	// cycles) while the 0.2 point finishes comfortably — a deterministic
	// ErrSaturated at exactly one rate.
	cfg := fastConfig(0)
	cfg.Sim.MaxCycles = 700
	rates := []float64{0.2, 0.01}
	path := filepath.Join(t.TempDir(), "sat.wal")
	opts := SweepOptions{Journal: path, Workers: 2, Lease: time.Second}
	if _, err := SweepWith(context.Background(), cfg, rates, opts); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturating sweep: got %v, want ErrSaturated", err)
	}
	st, err := JournalStatus(path)
	if err != nil {
		t.Fatal(err)
	}
	if st[0].State != "done" || st[1].State != "failed" || st[1].Err == "" {
		t.Fatalf("status = %+v, want point 0 done, point 1 failed", st)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	opts.Resume = true
	opts.Run = func(context.Context, Config, float64) (*Result, error) {
		t.Error("resume re-ran a settled point")
		return nil, errors.New("unexpected run")
	}
	results, err := SweepWith(context.Background(), cfg, rates, opts)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("resume lost the committed saturation: %v", err)
	}
	var serr *SweepError
	if !errors.As(err, &serr) || len(serr.Rates) != 1 || serr.Rates[0] != 0.01 {
		t.Fatalf("resume misattributed the failure: %v", err)
	}
	if results[0] == nil || results[1] != nil {
		t.Fatalf("resume results wrong: %v", results)
	}
	// Nothing re-ran and nothing was re-opened, so nothing was appended.
	if after, err := os.ReadFile(path); err != nil || len(after) != len(before) {
		t.Fatalf("resume appended %d bytes to a settled journal (%v)", len(after)-len(before), err)
	}
}

// TestSweepDistributedResumeMissingFileStartsFresh: Resume against a
// nonexistent journal behaves like a fresh sweep — the CLI user passes
// -resume on the first run too, and it must not fail.
func TestSweepDistributedResumeMissingFileStartsFresh(t *testing.T) {
	cfg := fastConfig(0)
	path := filepath.Join(t.TempDir(), "fresh.wal")
	results, err := SweepWith(context.Background(), cfg, []float64{0.04}, SweepOptions{
		Journal: path, Workers: 1, Lease: time.Second, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] == nil {
		t.Fatal("fresh resumed sweep returned no result")
	}
	if st, err := JournalStatus(path); err != nil || len(st) != 1 || st[0].State != "done" {
		t.Fatalf("fresh journal status = %+v, %v; want one done point", st, err)
	}
}

// TestSweepQueueRejectsV1Journal: a journal in the retired v1
// single-process format is rejected by every entry point that reads one
// — resume, a joining worker and the status report — with an error
// wrapping ErrJournal that names the format and the fix. Restarting
// without resume replaces it.
func TestSweepQueueRejectsV1Journal(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02}
	path := filepath.Join(t.TempDir(), "v1.jsonl")
	digest, err := SweepConfigDigest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1 := fmt.Sprintf(`{"version":1,"config_digest":%q,"rates":[0.02]}`+"\n"+
		`{"index":0,"rate":0.02,"err":"x","err_kind":"saturated"}`+"\n", digest)
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrJournal) || !strings.Contains(err.Error(), "v1") ||
			!strings.Contains(err.Error(), "without -resume") {
			t.Fatalf("%s on a v1 journal: got %v, want ErrJournal naming v1 and the restart", what, err)
		}
	}
	check("CreateSweepQueue(resume)", CreateSweepQueue(path, cfg, rates, true))
	_, err = SweepWorker(context.Background(), cfg, rates, SweepWorkerOptions{Path: path})
	check("SweepWorker", err)
	_, err = JournalStatus(path)
	check("JournalStatus", err)

	if err := CreateSweepQueue(path, cfg, rates, false); err != nil {
		t.Fatalf("fresh restart over a v1 journal: %v", err)
	}
	if st, err := JournalStatus(path); err != nil || len(st) != 1 || st[0].State != "pending" {
		t.Fatalf("restarted journal status = %+v, %v; want one pending point", st, err)
	}
}

// TestSweepWorkerCancelDropsClaim: a cancelled worker releases its claim
// immediately (a drop record), so the point is re-claimable without a
// lease-expiry wait.
func TestSweepWorkerCancelDropsClaim(t *testing.T) {
	cfg := fastConfig(0)
	// A long point: lots of samples so cancellation lands mid-run.
	cfg.Sim.SamplePackets = 200000
	rates := []float64{0.05}
	path := filepath.Join(t.TempDir(), "sweep.wal")
	if err := CreateSweepQueue(path, cfg, rates, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	claimed := make(chan struct{})
	opts := SweepWorkerOptions{
		Path: path, WorkerID: "w1", Lease: time.Minute,
		holdPoint: func(int) { close(claimed) },
	}
	done := make(chan error, 1)
	go func() {
		_, err := SweepWorker(ctx, cfg, rates, opts)
		done <- err
	}()
	<-claimed
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled worker: got %v, want context.Canceled", err)
	}
	st, err := JournalStatus(path)
	if err != nil {
		t.Fatal(err)
	}
	if st[0].State != "pending" {
		t.Fatalf("point after cancel = %+v, want pending (claim dropped)", st[0])
	}
}

// TestSweepDistributedCustomRunner: SweepOptions.Run replaces
// the in-process point executor for every worker — the seam the remote
// dispatch layer plugs into — without changing what gets committed.
func TestSweepDistributedCustomRunner(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.05, 0.08}
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	path := filepath.Join(t.TempDir(), "sweep.wal")
	dist, err := SweepWith(context.Background(), cfg, rates, SweepOptions{
		Journal: path, Workers: 2, Lease: 2 * time.Second,
		Run: func(ctx context.Context, cfg Config, rate float64) (*Result, error) {
			calls.Add(1)
			return RunPoint(ctx, cfg, rate)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(rates)) {
		t.Fatalf("custom runner ran %d points, want %d", got, len(rates))
	}
	for i := range rates {
		if dist[i] == nil || fingerprint(clean[i]) != fingerprint(dist[i]) {
			t.Errorf("rate %g: custom-runner result differs from sequential sweep", rates[i])
		}
	}
}

// TestSweepWorkerCountsBackendDown: a runner failing with ErrBackendDown
// (every remote backend circuit-broken, local fallback disabled) is
// counted in WorkerStats.BackendDown, and the points settle as
// non-deterministic failures — visible in the status report and re-run
// on resume rather than burned.
func TestSweepWorkerCountsBackendDown(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.05}
	path := filepath.Join(t.TempDir(), "sweep.wal")
	if err := CreateSweepQueue(path, cfg, rates, false); err != nil {
		t.Fatal(err)
	}
	down := fmt.Errorf("dispatching rate: %w", ErrBackendDown)
	stats, err := SweepWorker(context.Background(), cfg, rates, SweepWorkerOptions{
		Path: path, WorkerID: "w1", Lease: time.Second,
		Run: func(context.Context, Config, float64) (*Result, error) { return nil, down },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackendDown != len(rates) || stats.Commits != len(rates) {
		t.Fatalf("stats = %+v, want %d backend-down failures all committed", stats, len(rates))
	}
	st, err := JournalStatus(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range st {
		if p.State != "failed" || !strings.Contains(p.Err, "backend") {
			t.Fatalf("point %d after backend-down sweep = %+v, want failed with backend error", i, p)
		}
	}
	// backend_down is transient: a resume with a healthy runner re-runs
	// exactly these points and settles them with real results.
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	results, err := SweepWith(context.Background(), cfg, rates, SweepOptions{
		Journal: path, Workers: 2, Lease: time.Second, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if results[i] == nil || fingerprint(clean[i]) != fingerprint(results[i]) {
			t.Errorf("rate %g: post-recovery result differs from sequential sweep", rates[i])
		}
	}
}
