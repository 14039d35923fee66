package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the engine's intra-run parallel kernel. The latching wire
// discipline (see Module) makes every module's Tick within a cycle
// data-independent: a tick reads only values wires delivered at the last
// cycle boundary, so ticks can run concurrently as long as each module's
// state is touched by exactly one goroutine. The engine therefore shards
// modules statically across a persistent pool of workers (no per-cycle
// goroutine spawn) and runs each cycle in three phases:
//
//  1. parallel phase — every shard's modules tick on their worker, behind
//     a lightweight epoch/counter barrier;
//  2. ordered phase — OrderedTicker modules run their TickOrdered on the
//     coordinator goroutine, in registration order, for the few
//     sub-stages that read state shared between modules (the
//     virtual-channel routers' ring-occupancy reads);
//  3. sequential phase — modules registered with Register (the network's
//     sink flusher, whose callbacks feed the shared sampler, checker and
//     latency statistics) tick on the coordinator;
//  4. latch phase — each worker latches the dirty wires of its own shard
//     behind a second epoch barrier (wires are assigned to their
//     producer's shard by ConnectSharded), while the coordinator latches
//     the unsharded remainder. Latch errors carry the wire's connection
//     sequence, so the coordinator reassembles them into the sequential
//     engine's exact reporting order.
//
// Determinism: shard assignment is static and value-free (no scheduling
// decision ever feeds back into simulation state), each module is ticked
// by exactly one worker, and cross-shard state (event counters, energy
// tables) is merged in fixed shard order with order-independent sums —
// so results are bit-identical to the sequential engine at every worker
// count. See DESIGN.md "Parallel execution".

// OrderedTicker is a Module whose per-cycle work is split in two: Tick
// runs in the parallel phase, and TickOrdered runs afterwards on a single
// goroutine, in registration order across all shards. Modules use it for
// the (small) part of their cycle that must observe other modules'
// same-cycle effects in a defined order.
type OrderedTicker interface {
	Module
	// TickOrdered runs the module's ordered sub-phase for the cycle.
	TickOrdered(cycle int64) error
}

// shardModule pairs a module with its global registration index, used to
// pick a deterministic first error when several shards fail in one cycle,
// and its activity gate (nil when ungated; see gate.go).
type shardModule struct {
	m   Module
	idx int
	g   *Gate
}

// orderedEntry pairs an ordered-phase module with its activity gate (nil
// when ungated).
type orderedEntry struct {
	m OrderedTicker
	g *Gate
}

// shardError is a worker's first module error of the current cycle.
type shardError struct {
	idx int
	err error
}

// pool is the persistent worker pool behind the parallel tick phase.
// It deliberately holds no reference to the Engine, so the engine's
// finalizer (which stops the pool's goroutines) can run.
// Worker phases within one cycle: tick the shard's modules, then latch
// the shard's dirty wires. The coordinator publishes the phase under
// p.mu before bumping the epoch, so a worker that observes the new epoch
// also observes the phase (the epoch atomics carry the happens-before).
const (
	phaseTick = iota
	phaseLatch
)

type pool struct {
	shards [][]shardModule

	// trackers[w] is worker w's dirty-wire list (see latch.go): enlisted
	// during w's tick phase, drained by w in the latch phase.
	trackers []*latchTracker

	// epoch counts issued cycles and done counts worker completions; the
	// coordinator publishes work by bumping epoch and waits for done to
	// reach epoch*workers. Both are monotonic, so a stale wakeup can
	// never re-run a cycle. The seq-cst atomics carry the happens-before
	// edges between coordinator and workers in both directions.
	epoch atomic.Int64
	done  atomic.Int64
	cycle atomic.Int64
	stop  atomic.Bool

	// mu/cond park workers that spun without finding new work, so an
	// engine that is built but idle (or stepped slowly) costs nothing.
	mu   sync.Mutex
	cond *sync.Cond

	// errs[w] is written only by worker w between its epoch pickup and
	// its done increment, and read by the coordinator after the barrier.
	errs []shardError

	// phase is written by the coordinator under mu before each epoch bump
	// and read by workers after observing that bump.
	phase int

	started bool
}

func newPool(workers int) *pool {
	p := &pool{
		shards:   make([][]shardModule, workers),
		trackers: make([]*latchTracker, workers),
	}
	for i := range p.trackers {
		p.trackers[i] = &latchTracker{}
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// start launches the worker goroutines. Called lazily at the first Step
// so building a network never spawns goroutines it may not use.
func (p *pool) start() {
	if p.started {
		return
	}
	p.started = true
	p.errs = make([]shardError, len(p.shards))
	for w := range p.shards {
		go p.worker(w)
	}
}

// shutdown wakes and terminates every worker. Idempotent.
func (p *pool) shutdown() {
	p.mu.Lock()
	p.stop.Store(true)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// worker is one shard's goroutine: wait for the next epoch, run the
// published phase — tick the shard's modules in order, or latch the
// shard's dirty wires — and report completion.
func (p *pool) worker(w int) {
	var seen int64
	for {
		target := seen + 1
		if !p.await(target) {
			return
		}
		seen = target
		cycle := p.cycle.Load()
		p.errs[w] = shardError{}
		if p.phase == phaseLatch {
			// Latch errors stay in the tracker, tagged with connection
			// sequence; the coordinator collects them in finishLatch.
			p.trackers[w].latchAll()
			p.done.Add(1)
			continue
		}
		for _, sm := range p.shards[w] {
			// Skip sleeping modules. awake is owned by this worker during
			// the tick phase: the coordinator only writes it between
			// cycles, while every worker is parked.
			if sm.g != nil && !sm.g.awake {
				continue
			}
			if err := tickModule(sm.m, cycle); err != nil {
				// Record the first error and stop the shard, mirroring
				// the sequential engine, which ticks no module after a
				// failing one.
				p.errs[w] = shardError{idx: sm.idx, err: err}
				break
			}
			if sm.g != nil && sm.g.q.Quiescent() {
				sm.g.awake = false
			}
		}
		p.done.Add(1)
	}
}

// await blocks until the epoch reaches target, spinning briefly (ticks
// are issued back to back in a running simulation) before parking on the
// condition variable. It returns false when the pool is shutting down.
func (p *pool) await(target int64) bool {
	for i := 0; i < 128; i++ {
		if p.stop.Load() {
			return false
		}
		if p.epoch.Load() >= target {
			return true
		}
		runtime.Gosched()
	}
	p.mu.Lock()
	for p.epoch.Load() < target && !p.stop.Load() {
		p.cond.Wait()
	}
	p.mu.Unlock()
	return !p.stop.Load()
}

// runPhase executes one parallel phase: publish the cycle and phase,
// wake the workers, wait for all shards, and return the deterministic
// first module error (the failing module with the lowest registration
// index — the module the sequential engine would have failed on first;
// always nil for the latch phase, whose errors are collected from the
// trackers by finishLatch). Allocation-free.
func (p *pool) runPhase(phase int, cycle int64) error {
	p.cycle.Store(cycle)
	p.mu.Lock()
	p.phase = phase
	p.epoch.Add(1)
	p.cond.Broadcast()
	p.mu.Unlock()
	target := p.epoch.Load() * int64(len(p.shards))
	for p.done.Load() < target {
		runtime.Gosched()
	}
	var first *shardError
	for w := range p.errs {
		se := &p.errs[w]
		if se.err != nil && (first == nil || se.idx < first.idx) {
			first = se
		}
	}
	if first != nil {
		return first.err
	}
	return nil
}

// SetParallel switches the engine into parallel mode with the given
// worker count (>= 2): modules added with RegisterSharded tick
// concurrently, one worker per shard, while Register keeps its meaning of
// "tick on the caller's goroutine, in order, after the parallel phase".
// Call before registering modules; the sequential Step path is untouched
// when SetParallel is never called (or workers < 2).
func (e *Engine) SetParallel(workers int) {
	if workers < 2 {
		return
	}
	e.pool = newPool(workers)
}

// Parallel reports the engine's worker count (1 when sequential).
func (e *Engine) Parallel() int {
	if e.pool == nil {
		return 1
	}
	return len(e.pool.shards)
}

// RegisterSharded adds a module to the given shard's parallel tick phase.
// The caller owns the sharding policy and must ensure no two shards share
// mutable state; out-of-range shards and a sequential engine fall back to
// Register, so callers may shard unconditionally.
func (e *Engine) RegisterSharded(shard int, m Module) {
	if m == nil {
		return
	}
	if e.pool == nil || shard < 0 || shard >= len(e.pool.shards) {
		e.Register(m)
		return
	}
	e.pool.shards[shard] = append(e.pool.shards[shard], shardModule{m: m, idx: e.nextIdx})
	e.nextIdx++
}

// RegisterOrdered adds a module to the ordered phase: its Tick runs in
// the parallel phase (via RegisterSharded) or not at all, and its
// TickOrdered runs on the coordinator goroutine after the barrier, in
// RegisterOrdered call order. On a sequential engine this is a no-op —
// the module's Tick is expected to do the full cycle's work there.
func (e *Engine) RegisterOrdered(m OrderedTicker) {
	if m == nil || e.pool == nil {
		return
	}
	e.ordered = append(e.ordered, orderedEntry{m: m})
}

// stepParallel is Step for a parallel engine: parallel tick phase,
// ordered phase, sequential phase, then the parallel latch phase.
func (e *Engine) stepParallel() error {
	if !e.pool.started {
		e.pool.start()
		// Stop the pool's goroutines when the engine is collected. The
		// pool holds no pointer back to the engine, so unreachability of
		// the engine implies the pool is only reachable from here.
		runtime.SetFinalizer(e, func(e *Engine) { e.pool.shutdown() })
	}
	// Drain wake bits into awake flags before releasing the workers: the
	// coordinator is the only goroutine running here, so the drain races
	// nothing, and the epoch barrier publishes the flags to the workers.
	if e.gating {
		e.drainWakes()
	}
	if err := e.pool.runPhase(phaseTick, e.cycle); err != nil {
		return err
	}
	for _, oe := range e.ordered {
		// A gate put to sleep during this cycle's tick phase is safe to
		// skip here too: Quiescent covers TickOrdered, and the tick-phase
		// barrier publishes the workers' awake writes.
		if oe.g != nil && !oe.g.awake {
			continue
		}
		if err := tickOrderedModule(oe.m, e.cycle); err != nil {
			return err
		}
	}
	for _, m := range e.modules {
		if err := tickModule(m, e.cycle); err != nil {
			return err
		}
	}
	// Coordinator-phase modules may have sent on sharded wires (enlisting
	// them on a worker's tracker) — safe, the workers are parked between
	// epochs. The latch phase then drains every tracker concurrently.
	_ = e.pool.runPhase(phaseLatch, e.cycle)
	e.coord.latchAll()
	err := e.finishLatch()
	e.cycle++
	return err
}

// tickModule runs one module's Tick with panic recovery. It takes the
// cycle rather than the engine, so pool workers can call it without
// touching the engine.
func tickModule(m Module, cycle int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: cycle %d: module %s: panic: %v", cycle, m.Name(), r)
		}
	}()
	if err := m.Tick(cycle); err != nil {
		return fmt.Errorf("sim: cycle %d: module %s: %w", cycle, m.Name(), err)
	}
	return nil
}

// tickOrderedModule runs one module's ordered sub-phase with panic
// recovery.
func tickOrderedModule(m OrderedTicker, cycle int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: cycle %d: module %s: ordered phase: panic: %v", cycle, m.Name(), r)
		}
	}()
	if err := m.TickOrdered(cycle); err != nil {
		return fmt.Errorf("sim: cycle %d: module %s: ordered phase: %w", cycle, m.Name(), err)
	}
	return nil
}
