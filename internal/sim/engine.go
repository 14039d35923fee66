package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// Module is a hardware block with per-cycle behaviour. Modules read values
// that wires delivered this cycle (sent last cycle) and send new values for
// next cycle, so tick order between modules does not affect results.
type Module interface {
	// Name identifies the module in diagnostics.
	Name() string
	// Tick advances the module by one cycle.
	Tick(cycle int64) error
}

// Engine drives a set of modules and wires cycle by cycle. By default it
// ticks every module on the caller's goroutine in registration order; see
// SetParallel for the sharded parallel mode (parallel.go).
type Engine struct {
	cycle   int64
	modules []Module
	bus     *Bus

	// Wire latching (see latch.go). coord is the tracker for wires
	// connected without a shard — the only tracker on a sequential
	// engine; parallel engines additionally keep one tracker per worker
	// in the pool. alwaysLatch holds Latchables that cannot dirty-track
	// themselves and are latched every cycle. latchSeq numbers
	// connections globally so latch errors sort into connection order
	// regardless of which shard latched them.
	coord       latchTracker
	alwaysLatch []seqLatch
	latchSeq    int
	latchErrs   []seqError

	// Parallel mode (SetParallel): sharded modules tick on the worker
	// pool, ordered modules run their TickOrdered afterwards on the
	// caller's goroutine, then the modules slice (the sequential phase)
	// and the wire latch. nextIdx numbers sharded registrations globally
	// so a cycle's first error is chosen deterministically.
	pool    *pool
	ordered []orderedEntry
	nextIdx int

	// Activity gating (see gate.go). moduleGates is index-aligned with
	// modules; nil entries tick unconditionally. gateWords holds one
	// shared atomic word per 64 gates for the wake bitmap.
	gating      bool
	gates       []*Gate
	gateWords   []*atomic.Uint64
	moduleGates []*Gate
}

// NewEngine returns an engine publishing on the given bus. A nil bus is
// replaced with a fresh one.
func NewEngine(bus *Bus) *Engine {
	if bus == nil {
		bus = &Bus{}
	}
	return &Engine{bus: bus}
}

// Bus returns the engine's event bus.
func (e *Engine) Bus() *Bus { return e.bus }

// Cycle returns the current cycle number (the cycle the next Step will
// execute).
func (e *Engine) Cycle() int64 { return e.cycle }

// Register adds a module; modules tick in registration order.
func (e *Engine) Register(m Module) {
	if m != nil {
		e.modules = append(e.modules, m)
		e.moduleGates = append(e.moduleGates, nil)
	}
}

// seqLatch is a non-dirty-trackable Latchable with its connection order.
type seqLatch struct {
	w   Latchable
	seq int
}

// Connect adds a wire (or any Latchable) to the engine's latch phase. On
// a parallel engine, the wire is latched by the coordinator; use
// ConnectSharded to have a worker latch it.
func (e *Engine) Connect(w Latchable) { e.connectTo(&e.coord, w) }

// ConnectSharded adds a wire to the given shard's latch phase, latched by
// that shard's worker. The shard must be the one whose modules send on
// the wire (the producer side), so dirty-list enlistment stays
// single-writer. Out-of-range shards and a sequential engine fall back to
// Connect, so callers may shard unconditionally.
func (e *Engine) ConnectSharded(shard int, w Latchable) {
	if e.pool == nil || shard < 0 || shard >= len(e.pool.trackers) {
		e.Connect(w)
		return
	}
	e.connectTo(e.pool.trackers[shard], w)
}

func (e *Engine) connectTo(t *latchTracker, w Latchable) {
	if w == nil {
		return
	}
	seq := e.latchSeq
	e.latchSeq++
	if dw, ok := w.(dirtyLatchable); ok {
		dw.bindTracker(t, seq)
		t.bound++
		return
	}
	e.alwaysLatch = append(e.alwaysLatch, seqLatch{w: w, seq: seq})
}

// Step executes one cycle: every module ticks, then every wire latches.
// A module panic is recovered into an error naming the module and cycle,
// so one corrupted module aborts the run with a diagnostic instead of
// tearing down the process (or a whole parameter sweep).
func (e *Engine) Step() error {
	if e.pool != nil {
		return e.stepParallel()
	}
	if e.gating {
		e.drainWakes()
		for i, m := range e.modules {
			g := e.moduleGates[i]
			if g != nil && !g.awake {
				continue
			}
			if err := tickModule(m, e.cycle); err != nil {
				return err
			}
			if g != nil && g.q.Quiescent() {
				g.awake = false
			}
		}
	} else {
		for _, m := range e.modules {
			if err := tickModule(m, e.cycle); err != nil {
				return err
			}
		}
	}
	e.coord.latchAll()
	err := e.finishLatch()
	e.cycle++
	return err
}

// finishLatch latches the always-latch list and joins every tracker's
// latch errors in connection order — the order the pre-dirty-tracking
// engine reported them in, identical at every worker count. The happy
// path (no errors) is allocation-free.
func (e *Engine) finishLatch() error {
	errs := e.latchErrs[:0]
	if e.pool != nil {
		for _, t := range e.pool.trackers {
			errs = append(errs, t.errs...)
		}
	}
	errs = append(errs, e.coord.errs...)
	for _, al := range e.alwaysLatch {
		if err := al.w.Latch(); err != nil {
			errs = append(errs, seqError{seq: al.seq, err: err})
		}
	}
	e.latchErrs = errs[:0]
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].seq < errs[j].seq })
	wrapped := make([]error, len(errs))
	for i, se := range errs {
		wrapped[i] = fmt.Errorf("sim: cycle %d: %w", e.cycle, se.err)
	}
	return errors.Join(wrapped...)
}

// Run executes n cycles, stopping at the first error.
func (e *Engine) Run(n int64) error {
	for i := int64(0); i < n; i++ {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil steps the engine until done returns true or the cycle limit is
// reached. It returns the number of cycles executed and an error if the
// limit was hit or a step failed.
func (e *Engine) RunUntil(done func() bool, limit int64) (int64, error) {
	start := e.cycle
	for !done() {
		if e.cycle-start >= limit {
			return e.cycle - start, fmt.Errorf("sim: cycle limit %d reached without completion", limit)
		}
		if err := e.Step(); err != nil {
			return e.cycle - start, err
		}
	}
	return e.cycle - start, nil
}
