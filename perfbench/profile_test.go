package main

import (
	"math"
	"testing"
)

const pprofTop = `File: perfbench
Type: cpu
Time: Oct 17, 2026 at 2:00am (UTC)
Duration: 10.20s, Total samples = 9.80s (96.08%)
Showing nodes accounting for 9.80s, 100% of 9.80s total
      flat  flat%   sum%        cum   cum%
     2.00s 20.41% 20.41%      3.00s 30.61%  orion/internal/sim.(*Bus).Publish
     1.00s 10.20% 30.61%      1.00s 10.20%  orion/internal/power.(*ArbiterState).Arbitrate
     0.50s  5.10% 35.71%      0.50s  5.10%  orion/internal/router.(*XBRouter).Tick (inline)
     0.50s  5.10% 40.82%      0.50s  5.10%  runtime.mallocgc
     0.40s  4.08% 44.90%      0.40s  4.08%  runtime.scanobject
     0.30s  3.06% 47.96%      0.30s  3.06%  runtime.futex
     0.30s  3.06% 51.02%      0.30s  3.06%  runtime.memmove
     0.20s  2.04% 53.06%      0.20s  2.04%  encoding/json.(*decodeState).object
     0.20s  2.04% 55.10%      0.20s  2.04%  net/http.(*conn).serve
     0.20s  2.04% 57.14%      0.20s  2.04%  internal/poll.(*FD).Read
     0.10s  1.02% 58.16%      0.10s  1.02%  internal/runtime/syscall.Syscall6
     0.10s  1.02% 58.16%      0.10s  1.02%  orion.SweepWithRunner.func1
     0.10s  1.02% 59.18%      0.10s  1.02%  main.runSim
`

func TestFoldTopByPackage(t *testing.T) {
	got, err := foldTop(pprofTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 0.2041, "power": 0.1020, "router": 0.0510,
		"runtime_gc": 0.0510 + 0.0408, "runtime_sched": 0.0306,
		"encoding_json": 0.0204, "net": 0.0408 + 0.0102,
		"stats": 0, "traffic": 0, "core": 0, "serve": 0, "remote": 0,
	}
	if len(got) != len(cpuGroups) {
		t.Errorf("got %d groups, want %d", len(got), len(cpuGroups))
	}
	for g, w := range want {
		if math.Abs(got[g]-w) > 1e-9 {
			t.Errorf("%s = %.4f, want %.4f", g, got[g], w)
		}
	}
}

func TestFoldTopRejectsEmpty(t *testing.T) {
	if _, err := foldTop("File: x\nType: cpu\n"); err == nil {
		t.Error("folding text without a table should fail")
	}
}

func TestSplitFunc(t *testing.T) {
	cases := map[string][2]string{
		"orion/internal/sim.(*Bus).Publish": {"orion/internal/sim", "(*Bus).Publish"},
		"runtime.mallocgc":                  {"runtime", "mallocgc"},
		"net/http.(*conn).serve":            {"net/http", "(*conn).serve"},
		"orion.RunPoint":                    {"orion", "RunPoint"},
		"nodot":                             {"nodot", ""},
	}
	for in, w := range cases {
		if p, r := splitFunc(in); p != w[0] || r != w[1] {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", in, p, r, w[0], w[1])
		}
	}
}
