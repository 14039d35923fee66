package orion

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// fastConfig is a quick 4×4 on-chip VC configuration for unit tests.
func fastConfig(rate float64) Config {
	return Config{
		Width: 4, Height: 4,
		Router:  RouterConfig{Kind: VirtualChannel, VCs: 2, BufferDepth: 8, FlitBits: 64},
		Link:    LinkConfig{LengthMm: 3},
		Traffic: TrafficConfig{Pattern: Uniform(), Rate: rate, PacketLength: 5, Seed: 5},
		Sim:     SimConfig{WarmupCycles: 200, SamplePackets: 300},
	}
}

func TestRouterKindString(t *testing.T) {
	if VirtualChannel.String() != "virtual-channel" || Wormhole.String() != "wormhole" ||
		CentralBuffered.String() != "central-buffered" {
		t.Error("kind names wrong")
	}
	if !strings.HasPrefix(RouterKind(9).String(), "RouterKind(") {
		t.Error("unknown kind should format numerically")
	}
}

func TestResolveValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // when set, a substring of the Validate error
	}{
		{"zero width", func(c *Config) { c.Width = 0 }, ""},
		{"negative height", func(c *Config) { c.Height = -1 }, ""},
		{"bad router kind", func(c *Config) { c.Router.Kind = RouterKind(9) }, ""},
		{"bad rate", func(c *Config) { c.Traffic.Rate = 1.5 }, ""},
		{"negative rate", func(c *Config) { c.Traffic.Rate = -0.1 }, ""},
		{"bad pattern", func(c *Config) { c.Traffic.Pattern.Kind = PatternKind(99) }, ""},
		{"broadcast source range", func(c *Config) { c.Traffic.Pattern = BroadcastFrom(99) }, ""},
		{"hotspot range", func(c *Config) { c.Traffic.Pattern = Pattern{Kind: PatternHotspot, Source: -1} }, ""},
		{"bad arbiter", func(c *Config) { c.Sim.Arbiter = ArbiterKind(9) }, ""},
		{"transpose non-square", func(c *Config) {
			c.Height = 2
			c.Traffic.Pattern = Pattern{Kind: PatternTranspose}
		}, ""},
		{"single terminal", func(c *Config) { c.Width, c.Height = 1, 1 },
			"Width/Height/Depth/Concentration: network needs at least two terminals, got 1"},
	}
	for _, tc := range cases {
		cfg := fastConfig(0.05)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	// Two terminals on one router are enough.
	spec, err := ParseTopologySpec("cmesh1x1x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(0.05)
	spec.Apply(&cfg)
	if err := cfg.Validate(); err != nil {
		t.Errorf("cmesh1x1x2: %v", err)
	}
}

func TestRunSmoke(t *testing.T) {
	res, err := Run(fastConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplePackets != 300 {
		t.Errorf("sample packets = %d, want 300", res.SamplePackets)
	}
	if res.AvgLatency <= 0 || res.TotalPowerW <= 0 || res.EnergyJ <= 0 {
		t.Error("missing metrics")
	}
	if res.OfferedRate != 0.05 {
		t.Errorf("offered rate echo = %g", res.OfferedRate)
	}
	total := res.Breakdown.Total()
	if math.Abs(total-res.TotalPowerW)/res.TotalPowerW > 1e-9 {
		t.Errorf("breakdown total %g != total %g", total, res.TotalPowerW)
	}
	if res.Breakdown.CentralBufferW != 0 {
		t.Error("XB router should have no central buffer power")
	}
}

func TestTechOverrides(t *testing.T) {
	cfg := fastConfig(0.05)
	cfg.Tech = TechConfig{FeatureUm: 0.07, Vdd: 1.0, FreqGHz: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(fastConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	// Smaller process, lower voltage and clock: less power.
	if res.TotalPowerW >= base.TotalPowerW {
		t.Errorf("scaled-down tech power %g should undercut default %g",
			res.TotalPowerW, base.TotalPowerW)
	}
}

func TestSweepOrdering(t *testing.T) {
	rates := []float64{0.02, 0.06, 0.1}
	results, err := Sweep(fastConfig(0), rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r.OfferedRate != rates[i] {
			t.Errorf("result %d has rate %g, want %g", i, r.OfferedRate, rates[i])
		}
	}
	// Latency grows with load; power grows with load.
	if !(results[0].AvgLatency < results[2].AvgLatency) {
		t.Errorf("latency not increasing: %v < %v", results[0].AvgLatency, results[2].AvgLatency)
	}
	if !(results[0].TotalPowerW < results[2].TotalPowerW) {
		t.Errorf("power not increasing: %v < %v", results[0].TotalPowerW, results[2].TotalPowerW)
	}
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	rates := []float64{0.03, 0.08}
	a, err := Sweep(fastConfig(0), rates)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(fastConfig(0), rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if a[i].AvgLatency != b[i].AvgLatency || a[i].EnergyJ != b[i].EnergyJ {
			t.Fatalf("sweep not deterministic at rate %g", rates[i])
		}
	}
}

func TestZeroLoadAndSaturation(t *testing.T) {
	cfg := fastConfig(0)
	zl, err := ZeroLoadLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if zl < 8 || zl > 40 {
		t.Errorf("zero-load latency = %.1f, implausible", zl)
	}
	cfg.Sim.MaxCycles = 120_000
	rate, ok, results, err := SaturationThroughput(cfg, []float64{0.05, 0.15, 0.25, 0.35})
	if err != nil && !ok {
		t.Fatalf("SaturationThroughput: %v", err)
	}
	if !ok {
		t.Fatal("a 4×4 torus with 2 VCs must saturate below 0.35 pkts/cycle/node")
	}
	if rate < 0.05 || rate > 0.35 {
		t.Errorf("saturation rate = %g, outside swept range", rate)
	}
	if len(results) != 4 {
		t.Errorf("results length = %d", len(results))
	}
}

// TestSaturationThroughputSkipsTimeouts: a point that timed out says
// nothing about the latency curve, so a sweep whose every point timed out
// has not saturated and keeps its error.
func TestSaturationThroughputSkipsTimeouts(t *testing.T) {
	cfg := fastConfig(0)
	cfg.Sim.PointTimeout = time.Nanosecond
	rate, ok, _, err := SaturationThroughput(cfg, []float64{0.05, 0.15})
	if ok || FailureCode(err) != CodeTimeout {
		t.Errorf("all points timed out: rate %g ok %v err %v; want ok=false and the timeout", rate, ok, err)
	}
}

// TestSaturationRate pins the one saturation rule (Section 4.1): the
// lowest rate whose latency exceeds twice zero-load, where a point that
// failed on MaxCycles counts as saturated and any other failure is
// skipped.
func TestSaturationRate(t *testing.T) {
	over := fastConfig(0.3)
	over.Sim.MaxCycles = 100
	_, satErr := Run(over)
	if !errors.Is(satErr, ErrSaturated) {
		t.Fatalf("MaxCycles 100 run: %v, want ErrSaturated", satErr)
	}
	timeout := context.DeadlineExceeded
	lat := func(l float64) *Result { return &Result{AvgLatency: l} }
	rates := []float64{0.05, 0.10, 0.15, 0.20}
	for _, tc := range []struct {
		name     string
		results  []*Result
		errs     []error
		wantRate float64
		wantOK   bool
	}{
		{"latency crosses", []*Result{lat(10), lat(15), lat(30), lat(90)}, nil, 0.15, true},
		{"below saturation", []*Result{lat(10), lat(11), lat(12), lat(13)}, nil, 0, false},
		{"timeouts skipped", []*Result{lat(10), nil, nil, nil}, []error{nil, timeout, timeout, timeout}, 0, false},
		{"saturated failure counts", []*Result{lat(10), nil, nil, lat(90)}, []error{nil, timeout, satErr, nil}, 0.15, true},
		{"lowest rate wins", []*Result{lat(10), nil, lat(90), nil}, []error{nil, satErr, nil, satErr}, 0.10, true},
	} {
		var sweepErr error
		if serr := collectSweepError(rates, append(tc.errs, make([]error, len(rates)-len(tc.errs))...)); serr != nil {
			sweepErr = serr
		}
		rate, ok := SaturationRate(rates, tc.results, sweepErr, 10)
		if rate != tc.wantRate || ok != tc.wantOK {
			t.Errorf("%s: got (%g, %v), want (%g, %v)", tc.name, rate, ok, tc.wantRate, tc.wantOK)
		}
	}
}

func TestComponentEnergies(t *testing.T) {
	rep, err := ComponentEnergies(fastConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BufferReadJ <= 0 || rep.BufferWriteAvgJ <= 0 || rep.CrossbarTraversalAvgJ <= 0 ||
		rep.LinkTraversalAvgJ <= 0 || rep.ArbiterGrantJ <= 0 {
		t.Error("missing component energies")
	}
	if rep.BufferWriteMaxJ <= rep.BufferWriteAvgJ {
		t.Error("max write should exceed average write")
	}
	// E_flit composition (Section 3.3).
	want := rep.BufferWriteAvgJ + rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ + rep.CrossbarCtrlJ +
		rep.BufferReadJ + rep.CrossbarTraversalAvgJ + rep.LinkTraversalAvgJ
	if math.Abs(rep.FlitEnergyJ-want)/want > 1e-12 {
		t.Errorf("E_flit = %g, want %g", rep.FlitEnergyJ, want)
	}
	if rep.RouterAreaUm2 <= 0 {
		t.Error("missing area estimate")
	}
	if rep.CentralBufReadJ != 0 {
		t.Error("XB report should have no central buffer energies")
	}
}

func TestComponentEnergiesCentralBuffer(t *testing.T) {
	cfg := fastConfig(0.05)
	cfg.Router = RouterConfig{
		Kind: CentralBuffered, BufferDepth: 64, FlitBits: 32,
		CentralBuffer: CentralBufferConfig{Banks: 4, Rows: 256, ReadPorts: 2, WritePorts: 2},
	}
	cfg.Link = LinkConfig{ChipToChip: true, ConstantWatts: 3}
	rep, err := ComponentEnergies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CentralBufReadJ <= 0 || rep.CentralBufWriteJ <= 0 {
		t.Error("missing central buffer energies")
	}
	if rep.CrossbarTraversalAvgJ != 0 {
		t.Error("CB report should have no main crossbar energy")
	}
	if rep.LinkConstantW != 3 {
		t.Errorf("link constant power = %g, want 3", rep.LinkConstantW)
	}
	if rep.LinkTraversalAvgJ != 0 {
		t.Error("chip-to-chip link should have no per-traversal energy")
	}
}

// TestWalkthroughFlitEnergy reproduces the Section 3.3 walkthrough router:
// 5 ports, 4 flit buffers per port, 32-bit flits, 5×5 crossbar, 4:1
// arbiters; E_flit must decompose into the five walkthrough terms.
func TestWalkthroughFlitEnergy(t *testing.T) {
	cfg := Config{
		Width: 4, Height: 4,
		Router:  RouterConfig{Kind: Wormhole, BufferDepth: 4, FlitBits: 32},
		Link:    LinkConfig{LengthMm: 3},
		Traffic: TrafficConfig{Pattern: Uniform(), Rate: 0.05, PacketLength: 1, Seed: 1},
	}
	rep, err := ComponentEnergies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	terms := []struct {
		name string
		v    float64
	}{
		{"E_wrt", rep.BufferWriteAvgJ},
		{"E_arb", rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ + rep.CrossbarCtrlJ},
		{"E_read", rep.BufferReadJ},
		{"E_xb", rep.CrossbarTraversalAvgJ},
		{"E_link", rep.LinkTraversalAvgJ},
	}
	var sum float64
	for _, term := range terms {
		if term.v <= 0 {
			t.Errorf("%s = %g, want positive", term.name, term.v)
		}
		sum += term.v
	}
	if math.Abs(sum-rep.FlitEnergyJ)/rep.FlitEnergyJ > 1e-12 {
		t.Errorf("walkthrough sum %g != E_flit %g", sum, rep.FlitEnergyJ)
	}
	// Arbiter energy is minor (paper: < 1% of node power).
	if terms[1].v > 0.05*rep.FlitEnergyJ {
		t.Errorf("E_arb = %g is not minor relative to E_flit = %g", terms[1].v, rep.FlitEnergyJ)
	}
}

func TestHeatmapString(t *testing.T) {
	res := &Result{NodePowerW: []float64{1, 2, 3, 4}}
	s, err := HeatmapString(res, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s != "3\t4\n1\t2\n" {
		t.Errorf("heatmap = %q", s)
	}
	if _, err := HeatmapString(res, 3, 2); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := HeatmapString(nil, 1, 1); err == nil {
		t.Error("nil result should fail")
	}
}

func TestMeshConfig(t *testing.T) {
	cfg := fastConfig(0.05)
	cfg.Mesh = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplePackets != 300 {
		t.Errorf("mesh run measured %d packets", res.SamplePackets)
	}
}

func TestAblationKnobs(t *testing.T) {
	base, err := Run(fastConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	mux := fastConfig(0.05)
	mux.Sim.MuxTreeCrossbar = true
	muxRes, err := Run(mux)
	if err != nil {
		t.Fatal(err)
	}
	if muxRes.Breakdown.CrossbarW >= base.Breakdown.CrossbarW {
		t.Error("mux-tree crossbar should reduce crossbar power at 5 ports")
	}
	if muxRes.AvgLatency != base.AvgLatency {
		t.Error("crossbar power model must not affect performance")
	}

	for _, arb := range []ArbiterKind{RoundRobinArbiter, QueuingArbiter} {
		cfg := fastConfig(0.05)
		cfg.Sim.Arbiter = arb
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("arbiter %d: %v", arb, err)
		}
		if res.Breakdown.ArbiterW <= 0 {
			t.Errorf("arbiter %d recorded no energy", arb)
		}
		if res.AvgLatency != base.AvgLatency {
			t.Errorf("arbiter power model must not affect performance")
		}
	}
}
