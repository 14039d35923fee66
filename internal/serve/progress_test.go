package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"orion"
)

// TestAsyncSweepJobReportsProgress drives a sweep job whose points
// settle one at a time and asserts /v1/jobs-style polls expose the
// points_done/points_total counters mid-flight and at completion.
func TestAsyncSweepJobReportsProgress(t *testing.T) {
	s, _ := newTestServer(t, Options{}, nil)
	firstPoint := make(chan struct{})
	release := make(chan struct{})
	s.sweepSim = func(ctx context.Context, cfg orion.Config, rates []float64, progress orion.SweepProgress) ([]*orion.Result, error) {
		progress(1, len(rates))
		close(firstPoint)
		<-release
		progress(len(rates), len(rates))
		return []*orion.Result{{AvgLatency: 1}, {AvgLatency: 2}, {AvgLatency: 3}}, nil
	}

	sub := s.Handle(context.Background(), &Request{
		Op: OpSweep, Config: testConfigJSON(t, 40), Rates: []float64{0.01, 0.02, 0.03}, Async: true,
	})
	if !sub.OK || sub.JobID == "" {
		t.Fatalf("submit response = %+v, want queued job", sub)
	}
	// The denominator is seeded at submission, before any point settles.
	poll := s.Handle(context.Background(), &Request{Op: OpJob, Job: sub.JobID})
	if poll.PointsTotal != 3 {
		t.Fatalf("points_total at submission = %d, want 3", poll.PointsTotal)
	}

	<-firstPoint
	poll = s.Handle(context.Background(), &Request{Op: OpJob, Job: sub.JobID})
	if poll.Status == JobDone {
		t.Fatalf("job done before release: %+v", poll)
	}
	if poll.PointsDone != 1 || poll.PointsTotal != 3 {
		t.Fatalf("mid-flight progress = %d/%d, want 1/3", poll.PointsDone, poll.PointsTotal)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		poll = s.Handle(context.Background(), &Request{Op: OpJob, Job: sub.JobID})
		if poll.Status == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed; last poll %+v", poll)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !poll.OK || len(poll.Results) != 3 {
		t.Fatalf("final poll = %+v, want 3 results", poll)
	}
	if poll.PointsDone != 3 || poll.PointsTotal != 3 {
		t.Fatalf("final progress = %d/%d, want 3/3", poll.PointsDone, poll.PointsTotal)
	}
}

// TestRetryAfterScalesWithPoolPressure holds the 429 backoff hint to its
// contract: 1 second when the queue is empty, growing with the queued
// work per worker, capped at maxRetryAfterSeconds.
func TestRetryAfterScalesWithPoolPressure(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 2, QueueDepth: 8}, nil)
	if got := s.retryAfterHint(); got != 1 {
		t.Fatalf("idle retryAfterHint = %d, want 1", got)
	}

	// Occupy both workers and queue six more submissions: pressure is
	// 6 queued / 2 workers -> 1 + 3 = 4 seconds.
	release := make(chan struct{})
	for i := 0; i < 8; i++ {
		if err := s.pool.submit(func() { <-release }); err != nil {
			t.Fatalf("submit %d shed: %v", i, err)
		}
	}
	// Wait until the two workers have actually picked their jobs up so
	// the queue depth is deterministic.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if q, _ := s.pool.pressure(); q == 6 {
			break
		}
		if time.Now().After(deadline) {
			q, w := s.pool.pressure()
			t.Fatalf("pool pressure never settled: queued %d workers %d", q, w)
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.retryAfterHint(); got != 4 {
		t.Fatalf("retryAfterHint under 6 queued = %d, want 4", got)
	}

	// The scaled hint is what the HTTP surface sends.
	rec := httptest.NewRecorder()
	s.writeResponse(rec, failResp("", orion.CodeOverloaded, "shed"))
	if got := rec.Header().Get("Retry-After"); got != "4" {
		t.Fatalf("Retry-After header = %q, want \"4\"", got)
	}
	close(release)
}

// TestRetryAfterHintCapped pins the ceiling: absurd queue depths must
// not produce absurd hints.
func TestRetryAfterHintCapped(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 200}, nil)
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < 150; i++ {
		if err := s.pool.submit(func() { <-release }); err != nil {
			t.Fatalf("submit %d shed: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if q, _ := s.pool.pressure(); q == 149 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool pressure never settled")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.retryAfterHint(); got != maxRetryAfterSeconds {
		t.Fatalf("retryAfterHint at depth 149 = %d, want the %d cap", got, maxRetryAfterSeconds)
	}
}
