package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"orion"
	"orion/internal/serve"
)

// layerProbes completes a traced run: it checks worker invariance, times
// isolated layer calls at the workload's shape, derives the span-based
// metrics, runs the probes for layers the workload does not reach (a
// local sweep for the mesh workloads, a small serve round for the
// simulation workloads), and folds the CPU profile of the workload window.
func (b *bench) layerProbes(ctx context.Context) error {
	b.probing = true
	m := b.perLayer
	speedup, res, err := b.speedup(ctx, b.rep)
	if err != nil {
		return fmt.Errorf("parallel speedup probe: %w", err)
	}
	m["sim.parallel_speedup"] = speedup
	iso, powerNs, err := b.isolatedProbes(b.rep)
	if err != nil {
		return err
	}
	for k, v := range iso {
		m[k] = v
	}
	for k, v := range b.layer.metrics(powerNs) {
		m[k] = v
	}
	if err := b.cacheProbe(res); err != nil {
		return fmt.Errorf("serve cache probe: %w", err)
	}

	if b.name == "mesh32-idle" || b.name == "mesh32-busy" {
		cfg := smallConfig(orion.VC16(), b.seed, 1000)
		if err := b.runFigure(ctx, b.tr, []labeled{{"VC16", cfg}}, fig5Rates[:4], "sweep-probe"); err != nil {
			return fmt.Errorf("sweep probe: %w", err)
		}
		b.note("sweep.* come from a 4-point local sweep probe: the mesh workload runs no sweep")
	}
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	var pointSelf []float64
	for _, s := range spans {
		if s.Name == "sweep.point" {
			pointSelf = append(pointSelf, ms(self[s.ID]))
		}
	}
	m["sweep.point_overhead_ms"] = median(pointSelf)
	m["sweep.tail_idle_share"] = tailIdleShare(spans, runtime.GOMAXPROCS(0))

	if b.serve == nil {
		if b.serve, err = b.serveProbe(ctx); err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		b.note("serve.* and remote.* come from one small traced serve round: this workload serves nothing")
	}
	s := b.serve
	handle := median(s.handleMs)
	rounds := float64(max(s.rounds, 1))
	m["serve.handle_ms"] = handle
	m["serve.http_overhead_ms"] = median(s.tracedHitMs) - handle
	m["serve.hits"] = s.hits / rounds
	m["serve.misses"] = s.misses / rounds
	m["serve.shed"] = s.shed / rounds
	m["remote.retries"] = s.retries / rounds
	m["remote.fallbacks"] = s.fallbacks / rounds
	spans = b.tr.snapshot()
	self = selfTimes(spans)
	var dispatch, overhead []float64
	for _, sp := range spans {
		if sp.Name == "remote.dispatch" {
			dispatch = append(dispatch, ms(sp.dur()))
			overhead = append(overhead, ms(self[sp.ID]))
		}
	}
	m["remote.dispatch_ms"] = median(dispatch)
	m["remote.overhead_ms"] = median(overhead)

	m["trace.overhead_s"] = median(b.tracedWalls) - median(b.untracedWalls)
	b.note("tracing overhead: traced wall_s %.6g (n=%d) - untraced wall_s %.6g (n=%d)",
		median(b.tracedWalls), len(b.tracedWalls), median(b.untracedWalls), len(b.untracedWalls))

	goBin, err := goBinary()
	if err != nil {
		return err
	}
	shares, err := foldProfile(goBin, b.profile)
	if err != nil {
		return err
	}
	for g, v := range shares {
		m["cpu."+g] = v
	}
	return nil
}

// tailIdleShare is the share of sweep time with fewer than procs points in
// flight. A sweep's window is the span its points are children of.
func tailIdleShare(spans []span, procs int) float64 {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	points := make(map[int][]span)
	for _, s := range spans {
		if s.Name == "sweep.point" && s.Parent != 0 {
			points[s.Parent] = append(points[s.Parent], s)
		}
	}
	var idle, total int64
	for parent, ps := range points {
		w := byID[parent]
		type edge struct {
			at    int64
			delta int
		}
		edges := []edge{{w.Start, 0}, {w.End, 0}}
		for _, p := range ps {
			edges = append(edges, edge{max(p.Start, w.Start), 1}, edge{min(p.End, w.End), -1})
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return edges[i].delta < edges[j].delta
		})
		inFlight := 0
		for i := 0; i+1 < len(edges); i++ {
			inFlight += edges[i].delta
			if inFlight < procs {
				idle += edges[i+1].at - edges[i].at
			}
		}
		total += w.End - w.Start
	}
	if total == 0 {
		return 0
	}
	return float64(idle) / float64(total)
}

// serveProbe runs one small traced serve round for workloads that serve
// nothing themselves.
func (b *bench) serveProbe(ctx context.Context) (*serveAcc, error) {
	sc, err := newScript(b.seed, probeCounts)
	if err != nil {
		return nil, err
	}
	want, err := b.references(ctx, nil, sc)
	if err != nil {
		return nil, err
	}
	acc := &serveAcc{}
	_, _, err = b.serveRound(ctx, b.tr, sc, want, acc, 0)
	return acc, err
}

// cacheProbe times the result cache's Get and Put with a payload of the
// workload's result, and request parsing, in isolation.
func (b *bench) cacheProbe(res *orion.Result) error {
	dir := filepath.Join(outDir, fmt.Sprintf("cache-probe-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	c, err := serve.OpenCache(dir)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(map[string]any{"result": res})
	if err != nil {
		return err
	}
	const entries = 20
	keys := make([]string, entries)
	var puts []float64
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("perfbench-%d-%d", b.seed, i)))
		keys[i] = hex.EncodeToString(sum[:])
		t0 := time.Now()
		if err := c.Put(keys[i], payload); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	var missing int
	get := perCall(2000, func(i int) {
		if _, ok := c.Get(keys[i%entries]); !ok {
			missing++
		}
	})
	if missing > 0 {
		return fmt.Errorf("%d cache reads of stored entries missed", missing)
	}
	cj, err := orion.ConfigJSON(b.rep)
	if err != nil {
		return err
	}
	body, err := json.Marshal(&serve.Request{Op: serve.OpRun, Config: cj})
	if err != nil {
		return err
	}
	var parseErr error
	parse := perCall(20000, func(int) {
		if _, err := serve.ParseRequest(body); err != nil {
			parseErr = err
		}
	})
	if parseErr != nil {
		return parseErr
	}
	b.perLayer["serve.cache_put_us"] = median(puts)
	b.perLayer["serve.cache_get_us"] = get / 1e3
	b.perLayer["serve.parse_us"] = parse / 1e3
	return nil
}
