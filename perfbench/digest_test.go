package main

import (
	"strings"
	"testing"

	"orion"
	"orion/internal/serve"
)

func sampleResult() *orion.Result {
	return &orion.Result{
		AvgLatency: 31.25, MinLatency: 12, MaxLatency: 90, LatencyP50: 29, LatencyP99: 77,
		TotalCycles: 5000, MeasuredCycles: 4000, SamplePackets: 1000,
		TotalPowerW: 1.5, EnergyJ: 3e-6,
		Breakdown: orion.PowerBreakdown{BufferW: 0.5, CrossbarW: 0.4, ArbiterW: 0.1, LinkW: 0.5},
		Events:    orion.EventCounts{BufferWrites: 100, BufferReads: 100, Arbitrations: 50, CrossbarTraversals: 100, LinkTraversals: 80},
	}
}

func TestDigestSeesEveryOutput(t *testing.T) {
	base := digest(sampleResult())
	perturb := []func(r *orion.Result){
		func(r *orion.Result) { r.TotalCycles++ },
		func(r *orion.Result) { r.AvgLatency += 1e-12 },
		func(r *orion.Result) { r.TotalPowerW *= 1 + 1e-15 },
		func(r *orion.Result) { r.Breakdown.ArbiterW += 1e-9 },
		func(r *orion.Result) { r.Events.Arbitrations++ },
		func(r *orion.Result) { r.Events.VCAllocations++ },
	}
	for i, p := range perturb {
		r := sampleResult()
		p(r)
		if digest(r) == base {
			t.Errorf("perturbation %d left the digest unchanged", i)
		}
	}
	if digest(sampleResult()) != base {
		t.Error("digest is not deterministic")
	}
}

func TestCheckerGoldenAndRepeat(t *testing.T) {
	c := &checker{seen: map[string]string{}, golden: map[string]string{"p": digest(sampleResult())}}
	if err := c.check("p", sampleResult()); err != nil {
		t.Fatalf("matching result failed: %v", err)
	}
	bad := sampleResult()
	bad.EnergyJ *= 1.0000001
	if err := c.check("p", bad); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Errorf("perturbed repeat: err = %v, want a digest mismatch", err)
	}
	if err := c.check("q", sampleResult()); err == nil {
		t.Error("a key missing from the golden table must fail at the default seed")
	}
	if err := c.check("p", nil); err == nil {
		t.Error("a missing result must fail")
	}

	fresh := &checker{seen: map[string]string{}, golden: map[string]string{"p": digest(sampleResult())}}
	if err := fresh.check("p", bad); err == nil || !strings.Contains(err.Error(), "golden") {
		t.Errorf("perturbed result against golden: err = %v, want a golden mismatch", err)
	}

	noGolden := &checker{seen: map[string]string{}}
	if err := noGolden.check("any", sampleResult()); err != nil {
		t.Errorf("without a golden table a first result must pass: %v", err)
	}
}

func TestVerifyServedAnswers(t *testing.T) {
	res := sampleResult()
	want := map[string]string{"serve/cold/0": digest(res), "serve/sweep/0/0.02": digest(res), "serve/sweep/0/0.04": digest(res)}
	cold := serveReq{kind: kindCold, key: "serve/cold/0"}
	if err := verify(cold, &serve.Response{OK: true, Result: res}, want); err != nil {
		t.Errorf("matching run answer failed: %v", err)
	}
	bad := sampleResult()
	bad.MaxLatency++
	if err := verify(cold, &serve.Response{OK: true, Result: bad}, want); err == nil {
		t.Error("a perturbed served result must fail")
	}
	if err := verify(cold, &serve.Response{OK: true}, want); err == nil {
		t.Error("an answer without a result must fail")
	}
	sweep := serveReq{kind: kindSweep, key: "serve/sweep/0", rates: []float64{0.02, 0.04}}
	if err := verify(sweep, &serve.Response{OK: true, Results: []*orion.Result{res, res}}, want); err != nil {
		t.Errorf("matching sweep answer failed: %v", err)
	}
	if err := verify(sweep, &serve.Response{OK: true, Results: []*orion.Result{res, bad}}, want); err == nil {
		t.Error("a sweep with one perturbed point must fail")
	}
	if err := verify(sweep, &serve.Response{OK: true, Results: []*orion.Result{res}}, want); err == nil {
		t.Error("a sweep missing a point must fail")
	}
}
