package orion

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// faultyConfig is fastConfig with a representative mixed fault schedule:
// a transient link drop, a transient link stall and a permanent bit-flip.
func faultyConfig(rate float64) Config {
	cfg := fastConfig(rate)
	cfg.Faults = &FaultsConfig{
		Seed: 3,
		Faults: []Fault{
			{Kind: FaultLinkDrop, Node: 0, Port: 0, Start: 400, Duration: 600},
			{Kind: FaultLinkStall, Node: 5, Port: 2, Start: 300, Duration: 200},
			{Kind: FaultBitFlip, Node: 10, Port: 1, Rate: 0.05},
		},
	}
	return cfg
}

// TestRunErrSaturated drives far beyond capacity with a tight cycle budget
// and asserts the typed saturation failure.
func TestRunErrSaturated(t *testing.T) {
	cfg := fastConfig(0.95)
	cfg.Sim.SamplePackets = 5000
	cfg.Sim.MaxCycles = 3000
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("over-driven run succeeded")
	}
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("errors.Is(err, ErrSaturated) = false: %v", err)
	}
	if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrFaulted) {
		t.Errorf("saturation misclassified: %v", err)
	}
}

// TestRunErrDeadlockFaultInduced stalls every link permanently: nothing is
// ever delivered, the progress guard fires, and — because the stalls are
// injected faults — the error also wraps ErrFaulted.
func TestRunErrDeadlockFaultInduced(t *testing.T) {
	cfg := fastConfig(0.05)
	faults, err := RandomLinkFaults(cfg, 1, 64, FaultLinkStall, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &FaultsConfig{Seed: 1, Faults: faults}
	cfg.Sim.ProgressWindowCycles = 2000
	cfg.CheckInvariants = InvariantOff // conservation is irrelevant mid-starvation
	_, err = Run(cfg)
	if err == nil {
		t.Fatal("fully stalled network delivered packets")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("errors.Is(err, ErrDeadlock) = false: %v", err)
	}
	if !errors.Is(err, ErrFaulted) {
		t.Errorf("fault-induced starvation does not wrap ErrFaulted: %v", err)
	}
}

// TestRunContextCancelled asserts an already-cancelled context aborts the
// run with a wrapped context.Canceled.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, fastConfig(0.05))
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false: %v", err)
	}
}

// TestRunContextDeadline asserts a tiny deadline aborts the run with
// context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	cfg := fastConfig(0.05)
	cfg.Sim.SamplePackets = 5000
	_, err := RunContext(ctx, cfg)
	if err == nil {
		t.Fatal("deadline-expired run succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false: %v", err)
	}
}

// TestInvariantErrorExposure asserts ErrInvariant failures carry the
// structured *InvariantError through the public API surface.
func TestInvariantErrorExposure(t *testing.T) {
	// Build a violation through the public alias to pin the type identity.
	var err error = &InvariantError{
		Invariant: "buffer-occupancy", Cycle: 10, Node: 2, Port: 1, VC: 0,
		Component: "input buffer", Detail: "occupancy 9 exceeds depth 8",
	}
	if !errors.Is(err, ErrInvariant) {
		t.Error("InvariantError does not wrap ErrInvariant")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) || ie.Node != 2 {
		t.Error("errors.As failed to recover the diagnostic")
	}
	if !strings.Contains(err.Error(), "node 2 port 1") {
		t.Errorf("diagnostic does not localise: %v", err)
	}
}

// TestFaultScheduleReproducible runs the same faulted configuration twice
// and requires bit-identical results — the fault streams must be as
// deterministic as the rest of the simulator.
func TestFaultScheduleReproducible(t *testing.T) {
	cfg := faultyConfig(0.08)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fingerprint(a), fingerprint(b)
	if fa != fb {
		t.Errorf("faulted runs with the same schedule differ:\n  first:  %+v\n  second: %+v", fa, fb)
	}
	if a.Faults != b.Faults || a.DroppedFlits != b.DroppedFlits {
		t.Errorf("fault stats differ: %+v vs %+v", a.Faults, b.Faults)
	}
	if a.Faults.DroppedPackets == 0 || a.Faults.FlippedFlits == 0 || a.Faults.StalledLinkCycles == 0 {
		t.Errorf("schedule had no observable effect: %+v", a.Faults)
	}
	if a.DroppedFlits != a.Faults.DroppedFlits {
		t.Errorf("Result.DroppedFlits %d != Faults.DroppedFlits %d", a.DroppedFlits, a.Faults.DroppedFlits)
	}
}

// TestFaultedFastPathMatchesReference extends the golden fast-vs-reference
// equivalence to a faulted run with the invariant checker forced on: fault
// hooks and checker bookkeeping must not perturb either event path.
func TestFaultedFastPathMatchesReference(t *testing.T) {
	cfg := faultyConfig(0.08)
	cfg.CheckInvariants = InvariantOn
	fast, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := cfg
	ref.Sim.ReferenceEventPath = true
	slow, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if ff, fs := fingerprint(fast), fingerprint(slow); ff != fs {
		t.Errorf("faulted fast path diverges from reference:\n  fast:      %+v\n  reference: %+v", ff, fs)
	}
	if fast.Faults != slow.Faults {
		t.Errorf("fault stats diverge: %+v vs %+v", fast.Faults, slow.Faults)
	}
}

// TestInvariantCheckerNeutral asserts enabling the checker does not change
// results — it only observes.
func TestInvariantCheckerNeutral(t *testing.T) {
	on := faultyConfig(0.08)
	on.CheckInvariants = InvariantOn
	off := faultyConfig(0.08)
	off.CheckInvariants = InvariantOff
	a, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
		t.Errorf("invariant checker changed results:\n  on:  %+v\n  off: %+v", fa, fb)
	}
}

// TestSweepPartialResults sweeps a rate set spanning zero load to deep
// saturation: one point fails (the zero-rate point ejects nothing, so the
// progress guard trips) while the others — including the saturating one —
// must keep their results, with the failure surfaced as a typed per-point
// error inside a single *SweepError.
func TestSweepPartialResults(t *testing.T) {
	cfg := fastConfig(0)
	cfg.Sim.SamplePackets = 1000
	cfg.Sim.MaxCycles = 20000
	cfg.Sim.ProgressWindowCycles = 1000
	rates := []float64{0, 0.05, 0.95}
	results, err := Sweep(cfg, rates)
	if err == nil {
		t.Fatal("sweep with a starved point returned no error")
	}
	var serr *SweepError
	if !errors.As(err, &serr) {
		t.Fatalf("sweep error is not a *SweepError: %v", err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("SweepError does not unwrap to ErrDeadlock: %v", err)
	}
	if results[1] == nil || results[2] == nil {
		t.Error("healthy points lost their results")
	}
	if results[0] != nil {
		t.Error("starved point returned a result")
	}
	if len(serr.Rates) != 1 || serr.Rates[0] != 0 {
		t.Errorf("failing rates = %v, want [0]", serr.Rates)
	}
	if len(serr.Errs) != 1 || !errors.Is(serr.Errs[0], ErrDeadlock) {
		t.Errorf("per-point error not typed: %v", serr.Errs)
	}
}

// TestSweepPointTimeout bounds each point's wall-clock time at something
// unmeetable and asserts per-point DeadlineExceeded errors with the curve
// machinery intact.
func TestSweepPointTimeout(t *testing.T) {
	cfg := fastConfig(0)
	cfg.Sim.SamplePackets = 5000
	cfg.Sim.PointTimeout = time.Nanosecond
	results, err := Sweep(cfg, []float64{0.05, 0.08})
	if err == nil {
		t.Fatal("nanosecond-deadline sweep succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("sweep error does not unwrap DeadlineExceeded: %v", err)
	}
	for i, res := range results {
		if res != nil {
			t.Errorf("point %d returned a result despite the deadline", i)
		}
	}
}

// TestSweepContextCancel cancels the whole sweep up front: every point
// fails with context.Canceled and no goroutine is left behind (the -race
// CI job doubles as the leak check).
func TestSweepContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := SweepContext(ctx, fastConfig(0), []float64{0.02, 0.05, 0.08})
	if err == nil {
		t.Fatal("cancelled sweep succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep error: %v", err)
	}
	for i, res := range results {
		if res != nil {
			t.Errorf("point %d ran despite cancellation", i)
		}
	}
}

// TestValidateAggregates asserts Config.Validate reports multiple problems
// at once with field-qualified messages.
func TestValidateAggregates(t *testing.T) {
	cfg := fastConfig(0.05)
	cfg.Width = -3
	cfg.Traffic.Rate = 7
	cfg.Sim.MaxCycles = -1
	cfg.Faults = &FaultsConfig{Faults: []Fault{{Kind: FaultBitFlip, Node: 0, Port: 0, Rate: 5}}}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("broken config validated")
	}
	for _, want := range []string{"Width/Height", "Traffic.Rate", "Sim.MaxCycles", "Faults.Faults[0]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error missing %q: %v", want, err)
		}
	}
	// Deep (resolved) validation still applies when the shallow pass is
	// clean: a fault on a node outside the topology is caught.
	cfg2 := fastConfig(0.05)
	cfg2.Faults = &FaultsConfig{Faults: []Fault{{Kind: FaultLinkStall, Node: 99, Port: 0}}}
	if err := cfg2.Validate(); err == nil || !strings.Contains(err.Error(), "node 99") {
		t.Errorf("out-of-range fault node not caught: %v", err)
	}
	if err := fastConfig(0.05).Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestZeroLoadLatencyValidates: the zero-load probe and the saturation
// search built on it reject an invalid configuration with Validate's
// field-qualified error before running anything, as Run does.
func TestZeroLoadLatencyValidates(t *testing.T) {
	cfg := fastConfig(0)
	cfg.Sim.SamplePackets = -5
	const want = "Sim.SamplePackets: must not be negative"
	if _, err := ZeroLoadLatency(cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ZeroLoadLatency = %v, want an error containing %q", err, want)
	}
	if _, _, res, err := SaturationThroughput(cfg, []float64{0.02}); err == nil || !strings.Contains(err.Error(), want) || res != nil {
		t.Errorf("SaturationThroughput = %v, %v, want no results and an error containing %q", res, err, want)
	}
}

// TestParseFaultSpec exercises the CLI fault grammar.
func TestParseFaultSpec(t *testing.T) {
	fs, err := ParseFaultSpec("link-stall:3:1, bit-flip:0:2:1000:500:0.01,link-drop:5:0:200")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: FaultLinkStall, Node: 3, Port: 1},
		{Kind: FaultBitFlip, Node: 0, Port: 2, Start: 1000, Duration: 500, Rate: 0.01},
		{Kind: FaultLinkDrop, Node: 5, Port: 0, Start: 200},
	}
	if len(fs) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(fs), len(want))
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, fs[i], want[i])
		}
	}
	for _, bad := range []string{"link-stall", "quantum:0:0", "link-stall:x:0", "bit-flip:0:0:0:0:nope", "link-stall:0:0:0:0:0:0"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", bad)
		}
	}
	if fs, err := ParseFaultSpec(""); err != nil || len(fs) != 0 {
		t.Errorf("empty spec: %v, %v", fs, err)
	}
}

// TestRandomLinkFaultsRejectsNonLinkKinds: a port stall is an input-port
// fault, so it (and any out-of-range kind) cannot be placed on links.
func TestRandomLinkFaultsRejectsNonLinkKinds(t *testing.T) {
	for _, kind := range []FaultKind{FaultPortStall, FaultKind(9)} {
		fs, err := RandomLinkFaults(fastConfig(0.05), 1, 3, kind, 0, 0, 0)
		if err == nil || !strings.Contains(err.Error(), kind.String()) {
			t.Errorf("%v: got %v, %v; want an error naming the kind", kind, fs, err)
		}
	}
}

// TestRandomLinkFaultsDeterministic pins the public random-link helper.
func TestRandomLinkFaultsDeterministic(t *testing.T) {
	cfg := fastConfig(0.05)
	a, err := RandomLinkFaults(cfg, 7, 5, FaultLinkDrop, 100, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomLinkFaults(cfg, 7, 5, FaultLinkDrop, 100, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed picked different links: %+v vs %+v", a, b)
		}
	}
	seen := map[[2]int]bool{}
	for _, f := range a {
		if f.Node < 0 || f.Node >= 16 || f.Port < 0 || f.Port >= 4 {
			t.Errorf("fault outside the 4×4 torus link set: %+v", f)
		}
		seen[[2]int{f.Node, f.Port}] = true
	}
	if len(seen) != 5 {
		t.Errorf("expected 5 distinct links, got %d", len(seen))
	}
}

// TestDroppedSampleAccounting checks the latency sample shrinks by exactly
// the dropped sample packets and the run still terminates.
func TestDroppedSampleAccounting(t *testing.T) {
	cfg := fastConfig(0.08)
	cfg.Faults = &FaultsConfig{Seed: 2, Faults: []Fault{
		{Kind: FaultLinkDrop, Node: 0, Port: 0, Start: 0}, // permanent drop
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedSamplePackets == 0 {
		t.Fatal("permanent link drop lost no sample packets")
	}
	if res.SamplePackets+res.DroppedSamplePackets != 300 {
		t.Errorf("delivered %d + dropped %d sample packets, want 300 total",
			res.SamplePackets, res.DroppedSamplePackets)
	}
}

// TestInvariantModeResolution pins the auto/env resolution rules.
func TestInvariantModeResolution(t *testing.T) {
	if !InvariantOn.enabled() || InvariantOff.enabled() {
		t.Error("explicit modes wrong")
	}
	// Under `go test`, auto means on.
	if !InvariantAuto.enabled() {
		t.Error("auto should enable under go test")
	}
	t.Setenv("ORION_INVARIANTS", "off")
	if InvariantAuto.enabled() {
		t.Error("ORION_INVARIANTS=off should win over auto")
	}
	if !InvariantOn.enabled() {
		t.Error("explicit On must ignore the environment")
	}
	t.Setenv("ORION_INVARIANTS", "1")
	if !InvariantAuto.enabled() {
		t.Error("ORION_INVARIANTS=1 should enable")
	}
}

// TestSweepErrorPoints: SweepError.Points names the failing rate
// indices, parallel to Rates and Errs, on both SweepWith paths. The
// tight MaxCycles starves the low-rate points of their samples (a
// deterministic ErrSaturated at the middle and last index) while the
// high-rate points finish; the repeated rate checks that indices, not
// rate values, carry the alignment.
func TestSweepErrorPoints(t *testing.T) {
	cfg := fastConfig(0)
	cfg.Sim.MaxCycles = 700
	rates := []float64{0.2, 0.01, 0.2, 0.01}
	for _, tc := range []struct {
		name string
		opts SweepOptions
	}{
		{"in-memory", SweepOptions{}},
		{"journal", SweepOptions{Journal: filepath.Join(t.TempDir(), "sweep.wal"), Workers: 2, Lease: time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results, err := SweepWith(context.Background(), cfg, rates, tc.opts)
			var serr *SweepError
			if !errors.As(err, &serr) {
				t.Fatalf("sweep error %v is not a *SweepError", err)
			}
			if fmt.Sprint(serr.Points) != "[1 3]" || len(serr.Rates) != 2 || len(serr.Errs) != 2 {
				t.Fatalf("SweepError points %v rates %v errs %d, want points [1 3]", serr.Points, serr.Rates, len(serr.Errs))
			}
			for j, i := range serr.Points {
				if results[i] != nil || serr.Rates[j] != rates[i] || !errors.Is(serr.Errs[j], ErrSaturated) {
					t.Errorf("failure %d at point %d: result %v, rate %g, err %v", j, i, results[i], serr.Rates[j], serr.Errs[j])
				}
			}
			if results[0] == nil || results[2] == nil {
				t.Errorf("healthy points lost their results: %v", results)
			}
		})
	}
}

// TestFailureCodeRoundTrip: every failure code survives a trip through
// its recorded form (code, fault flag, message), as a journal read or a
// remote backend reply rebuilds it, and only the simulator's own
// outcomes are final.
func TestFailureCodeRoundTrip(t *testing.T) {
	deterministic := map[string]bool{CodeSaturated: true, CodeDeadlock: true, CodeInvariant: true}
	for _, code := range []string{CodeInvariant, CodeSaturated, CodeDeadlock, CodeOverloaded,
		CodeBackendDown, CodeTimeout, CodeCancelled, CodeInternal} {
		for _, faulted := range []bool{false, true} {
			err := FailureError(code, faulted, "recorded message")
			if got := FailureCode(err); got != code {
				t.Errorf("FailureCode(FailureError(%q, %v)) = %q", code, faulted, got)
			}
			if errors.Is(err, ErrFaulted) != faulted {
				t.Errorf("FailureError(%q, %v): errors.Is(ErrFaulted) = %v", code, faulted, !faulted)
			}
			if err.Error() != "recorded message" {
				t.Errorf("FailureError(%q) message = %q", code, err.Error())
			}
		}
		if DeterministicCode(code) != deterministic[code] {
			t.Errorf("DeterministicCode(%q) = %v", code, !deterministic[code])
		}
	}
	// The journal's catch-all before the shared vocabulary was "failed":
	// it reads back as internal and transient.
	if got := FailureCode(FailureError("failed", false, "x")); got != CodeInternal || DeterministicCode("failed") {
		t.Errorf(`legacy "failed" reads back as %q (deterministic %v), want internal and transient`, got, DeterministicCode("failed"))
	}
}
