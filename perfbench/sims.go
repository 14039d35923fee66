package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"orion"
)

// simRun is one simulation driven through the public Sim API.
type simRun struct {
	res   *orion.Result
	build time.Duration // inside orion.NewSim
	run   time.Duration // from NewSim's return to the Result
	// Traced runs step the measurement in chunks so each phase is timed.
	warmup, measure, finalize   time.Duration
	warmupCycles, measureCycles int64
	sim                         *orion.Sim
}

// chunkCycles sizes the traced measurement chunks to roughly equal host
// work whatever the network size.
func chunkCycles(cfg orion.Config) int64 {
	nodes := int64(cfg.Width * cfg.Height)
	return max(64, (1<<17)/nodes)
}

// runSim builds and runs cfg. Untraced, it is NewSim followed by Run;
// traced, the warm-up, each measurement chunk and the finalising Run are
// separate calls with a span each, under parent.
func runSim(ctx context.Context, tr *tracer, parent int, req string, cfg orion.Config) (simRun, error) {
	var out simRun
	t0 := time.Now()
	id := tr.start("core.build", parent, req)
	s, err := orion.NewSim(cfg)
	tr.end(id)
	t1 := time.Now()
	out.build, out.sim = t1.Sub(t0), s
	if err != nil {
		return out, err
	}
	if tr == nil {
		out.res, err = s.RunContext(ctx)
		out.run = time.Since(t1)
		return out, err
	}
	warm := cfg.Sim.WarmupCycles
	if warm == 0 {
		warm = 1000
	}
	id = tr.start("core.warmup", parent, req)
	done, err := s.StepTo(ctx, warm)
	tr.end(id)
	t2 := time.Now()
	out.warmup, out.warmupCycles = t2.Sub(t1), s.Cycle()
	chunk := chunkCycles(cfg)
	for !done && err == nil {
		id = tr.start("core.measure", parent, req)
		done, err = s.StepTo(ctx, s.Cycle()+chunk)
		tr.end(id)
	}
	if err != nil {
		return out, err
	}
	t3 := time.Now()
	out.measure, out.measureCycles = t3.Sub(t2), s.Cycle()-out.warmupCycles
	id = tr.start("core.finalize", parent, req)
	out.res, err = s.RunContext(ctx)
	tr.end(id)
	out.finalize = time.Since(t3)
	out.run = time.Since(t1)
	return out, err
}

// pointConfig is what orion.RunPoint runs for a sweep point: the rate
// folded in and, unless asked otherwise, one tick worker.
func pointConfig(cfg orion.Config, rate float64) orion.Config {
	if cfg.Sim.Workers == 0 {
		cfg.Sim.Workers = 1
	}
	cfg.Traffic.Rate = rate
	return cfg
}

// layerAcc accumulates what traced simulations report per layer.
type layerAcc struct {
	mu                        sync.Mutex
	buildMs, finalizeMs       []float64
	warmNsPerCycle, cycles    []float64
	measureNs                 float64
	measureCycles, sims       int64
	ev                        orion.EventCounts
	events, measuredSimCycles int64
}

func (a *layerAcc) add(st simRun) {
	if st.res == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sims++
	a.buildMs = append(a.buildMs, ms(st.build))
	a.finalizeMs = append(a.finalizeMs, ms(st.finalize))
	if st.warmupCycles > 0 {
		a.warmNsPerCycle = append(a.warmNsPerCycle, float64(st.warmup.Nanoseconds())/float64(st.warmupCycles))
	}
	a.cycles = append(a.cycles, float64(st.res.TotalCycles))
	a.measureNs += float64(st.measure.Nanoseconds())
	a.measureCycles += st.measureCycles
	e := st.res.Events
	a.ev.BufferWrites += e.BufferWrites
	a.ev.Arbitrations += e.Arbitrations
	a.ev.VCAllocations += e.VCAllocations
	a.ev.CrossbarTraversals += e.CrossbarTraversals
	a.ev.LinkTraversals += e.LinkTraversals
	a.events += events(st.res)
	a.measuredSimCycles += st.res.MeasuredCycles
}

// metrics reports the core, sim and router metrics of the traced
// simulations, plus the power shares from the isolated per-call costs.
func (a *layerAcc) metrics(powerNs map[string]float64) map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := map[string]float64{
		"core.build_ms":              median(a.buildMs),
		"core.warmup_ns_per_cycle":   median(a.warmNsPerCycle),
		"core.measure_ns_per_cycle":  a.measureNs / float64(max(a.measureCycles, 1)),
		"core.finalize_ms":           median(a.finalizeMs),
		"core.cycles":                median(a.cycles),
		"sim.events_per_cycle":       float64(a.events) / float64(max(a.measuredSimCycles, 1)),
		"router.crossbar_traversals": float64(a.ev.CrossbarTraversals) / float64(max(a.sims, 1)),
		"router.vc_allocations":      float64(a.ev.VCAllocations) / float64(max(a.sims, 1)),
	}
	counts := map[string]int64{
		"arbitrate":         a.ev.Arbitrations + a.ev.VCAllocations,
		"buffer_write":      a.ev.BufferWrites,
		"crossbar_traverse": a.ev.CrossbarTraversals,
		"link_traverse":     a.ev.LinkTraversals,
	}
	for op, n := range counts {
		m["power."+op+"_share"] = powerNs[op] * float64(n) / max(a.measureNs, 1)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// liveHeapMB returns the heap one built network holds after a collection:
// the median over three builds of each config, averaged over configs.
func liveHeapMB(cfgs []orion.Config) (float64, error) {
	var total float64
	for _, cfg := range cfgs {
		var xs []float64
		for i := 0; i < 3; i++ {
			before := heapAfterGC()
			s, err := orion.NewSim(cfg)
			if err != nil {
				return 0, err
			}
			after := heapAfterGC()
			runtime.KeepAlive(s)
			xs = append(xs, (float64(after)-float64(before))/1e6)
		}
		total += median(xs)
	}
	return total / float64(len(cfgs)), nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// benchConfig pins what the benchmark must not inherit: invariant checks
// off and the traffic seed taken from the benchmark's seed.
func benchConfig(cfg orion.Config, seed int64) orion.Config {
	cfg.CheckInvariants = orion.InvariantOff
	cfg.Traffic.Seed = seed
	return cfg
}

type labeled struct {
	label string
	cfg   orion.Config
}

// fig5Rates stay below every knee in EXPERIMENTS.md, so no point saturates.
var fig5Rates = []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}

func fig5Configs(seed int64) []labeled {
	var out []labeled
	for _, c := range orion.Fig5Configs() {
		out = append(out, labeled{c.Label, benchConfig(orion.OnChip4x4(c.Router, 0), seed)})
	}
	return out
}

// runFigure regenerates Figure 5 once: each configuration is swept through
// the sweep executor with default point concurrency. The runner performs
// orion.RunPoint's steps through NewSim and Run so set-up is timed from
// outside.
func (b *bench) runFigure(ctx context.Context, tr *tracer, cfgs []labeled, rates []float64, prefix string) error {
	fig := tr.start("sweep.figure", 0, prefix)
	defer tr.end(fig)
	for _, c := range cfgs {
		sw := tr.start("sweep.sweep", fig, c.label)
		runner := func(ctx context.Context, cfg orion.Config, rate float64) (*orion.Result, error) {
			key := fmt.Sprintf("%s/%s/%.2f", prefix, c.label, rate)
			p := tr.start("sweep.point", sw, key)
			st, err := runSim(ctx, tr, p, key, pointConfig(cfg, rate))
			tr.end(p)
			if err = b.settle(key, st.res, err); err != nil {
				return nil, err
			}
			b.recordSim(tr, st)
			return st.res, nil
		}
		// Point errors are already counted by settle.
		_, _ = orion.SweepWithRunner(ctx, c.cfg, rates, runner, nil)
		tr.end(sw)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) fig5(ctx context.Context) error {
	cfgs := fig5Configs(b.seed)
	var plain []orion.Config
	for _, c := range cfgs {
		plain = append(plain, c.cfg)
	}
	live, err := liveHeapMB(plain)
	if err != nil {
		return err
	}
	b.acc.liveMB = live
	b.rep = cfgs[2].cfg // VC64
	b.rep.Traffic.Rate = 0.08
	return b.iterate(ctx, true, func(tr *tracer) (int, time.Duration, error) {
		return len(cfgs) * len(fig5Rates), 0, b.runFigure(ctx, tr, cfgs, fig5Rates, "fig5")
	})
}

// meshConfig is the 32×32 VC8 mesh with 2000 sample packets per run.
func meshConfig(seed int64, rate float64) orion.Config {
	cfg := benchConfig(orion.OnChipMesh(32, 32, orion.VC8(), rate), seed)
	cfg.Sim.SamplePackets = 2000
	return cfg
}

// meshSeeds is how many traffic seeds a mesh run cycles through, so the
// run's medians average over traffic draws instead of resting on one.
const meshSeeds = 4

func (b *bench) mesh(ctx context.Context, rate float64) error {
	cfgs := make([]orion.Config, meshSeeds)
	for k := range cfgs {
		cfgs[k] = meshConfig(b.seed*meshSeeds+int64(k), rate)
	}
	live, err := liveHeapMB(cfgs[:1])
	if err != nil {
		return err
	}
	b.acc.liveMB = live
	b.rep = cfgs[0]
	unit := 0
	return b.iterate(ctx, true, func(tr *tracer) (int, time.Duration, error) {
		k := unit % meshSeeds
		if b.traced {
			k = unit / 2 % meshSeeds // a traced unit repeats its untraced twin's traffic
		}
		unit++
		key := fmt.Sprintf("%s/%d", b.name, k)
		root := tr.start("mesh.run", 0, key)
		st, err := runSim(ctx, tr, root, key, cfgs[k])
		tr.end(root)
		if err := b.settle(key, st.res, err); err == nil {
			b.recordSim(tr, st)
		}
		return 1, 0, nil
	})
}
