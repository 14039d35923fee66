package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: union 10..50
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // clipped to 90..100
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 18},
		{ID: 6, Parent: 3, Name: "gone", Start: 60, End: 70}, // outside parent b
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 40, 5: 6, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	kids := []span{{Start: 50, End: 60}, {Start: 0, End: 10}, {Start: 2, End: 5}, {Start: 10, End: 20}}
	if got := covered(0, 100, kids); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered(nothing) = %d, want 0", got)
	}
}

func TestTracerNilAndConcurrent(t *testing.T) {
	var nilTr *tracer
	if id := nilTr.start("x", 0, ""); id != 0 {
		t.Fatalf("nil tracer returned id %d", id)
	}
	nilTr.end(0)

	tr := newTracer()
	root := tr.start("root", 0, "r1")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.end(tr.start("kid", root, "r1"))
		}()
	}
	open := tr.start("open", root, "")
	wg.Wait()
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 9 {
		t.Fatalf("snapshot holds %d closed spans, want 9 (the open one excluded)", len(got))
	}
	_ = open
	for _, s := range got {
		if s.Name == "kid" && (s.Parent != root || s.Req != "r1") {
			t.Errorf("kid span %+v lost its parent or request ID", s)
		}
	}
}

func TestTailIdleShare(t *testing.T) {
	// One sweep window 0..100 on 2 processors: two points overlap for
	// 0..40, one runs alone 40..70, none 70..100.
	spans := []span{
		{ID: 1, Name: "sweep.sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sweep.point", Start: 0, End: 40},
		{ID: 3, Parent: 1, Name: "sweep.point", Start: 0, End: 70},
		{ID: 4, Parent: 3, Name: "core.build", Start: 0, End: 5},
	}
	if got := tailIdleShare(spans, 2); got != 0.6 {
		t.Errorf("tail idle share = %v, want 0.6", got)
	}
	if got := tailIdleShare(spans, 1); got != 0.3 {
		t.Errorf("tail idle share on 1 processor = %v, want 0.3", got)
	}
	if got := tailIdleShare(spans[:1], 2); got != 0 {
		t.Errorf("a window without points = %v, want 0", got)
	}
}
