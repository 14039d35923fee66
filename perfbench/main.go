// Command perfbench is Orion's end-to-end benchmark. It drives the public
// entry points (orion.NewSim / Sim.StepTo / Sim.Run, the sweep executor,
// serve.Server behind its HTTP handler, and remote.Pool) on one of four
// workloads, checks every simulated output, and prints one JSON result as
// the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the run alternates untraced and traced units of work, records spans
// around every call into a layer, times isolated layer calls, folds a CPU
// profile by package, and reports the per-layer metrics; the spans go to
// .bench_build/perfbench/. METRICS.md defines every metric per workload
// and maps each per-layer metric to the end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"orion"
)

// defaultSeed is the seed whose simulated outputs golden.json pins.
const defaultSeed = 1

// outDir holds what a run writes, relative to the repository root.
var outDir = filepath.Join(".bench_build", "perfbench")

var workloads = map[string]func(*bench, context.Context) error{
	"fig5-sweep":  (*bench).fig5,
	"mesh32-idle": func(b *bench, ctx context.Context) error { return b.mesh(ctx, 0.0003) },
	"mesh32-busy": func(b *bench, ctx context.Context) error { return b.mesh(ctx, 0.005) },
	"serve-mix":   (*bench).serveMix,
}

// The metric sets of BENCHMARK.json, with units.
var (
	endToEnd = map[string]string{
		"wall_s": "s", "setup_s": "s", "ns_per_event": "ns", "alloc_mb": "MB",
		"live_heap_mb": "MB", "req_per_s": "1/s", "p50_ms": "ms",
	}
	perLayerUnits = map[string]string{
		"core.build_ms": "ms", "power.model_build_ms": "ms", "core.warmup_ns_per_cycle": "ns",
		"core.measure_ns_per_cycle": "ns", "core.finalize_ms": "ms", "core.cycles": "count",
		"sim.publish_ns": "ns", "sim.events_per_cycle": "count", "sim.parallel_speedup": "ratio",
		"router.tick_ns.wh": "ns", "router.tick_ns.vc": "ns", "router.tick_ns.cb": "ns",
		"router.crossbar_traversals": "count", "router.vc_allocations": "count",
		"power.arbitrate_ns": "ns", "power.buffer_write_ns": "ns", "power.crossbar_traverse_ns": "ns",
		"power.link_traverse_ns": "ns", "power.arbitrate_share": "ratio", "power.buffer_write_share": "ratio",
		"power.crossbar_traverse_share": "ratio", "power.link_traverse_share": "ratio",
		"traffic.tick_ns_per_node": "ns", "sweep.point_overhead_ms": "ms", "sweep.tail_idle_share": "ratio",
		"serve.handle_ms": "ms", "serve.http_overhead_ms": "ms", "serve.cache_get_us": "us",
		"serve.cache_put_us": "us", "serve.parse_us": "us", "serve.hits": "count", "serve.misses": "count",
		"serve.shed": "count", "remote.dispatch_ms": "ms", "remote.overhead_ms": "ms",
		"remote.retries": "count", "remote.fallbacks": "count", "trace.overhead_s": "s",
	}
)

func init() {
	for _, g := range cpuGroups {
		perLayerUnits["cpu."+g] = "ratio"
	}
}

// e2eAcc accumulates end-to-end samples from untraced units of work.
type e2eAcc struct {
	mu         sync.Mutex
	walls      []float64 // s per unit of work
	setups     []float64 // s
	nsPerEvent []float64
	opLatMs    []float64
	rates      []float64 // operations per second of each unit
	ops        int
	alloc      uint64
	liveMB     float64
}

// tally counts operations and failures: runs, points, requests, and
// every failed correctness check.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	firstErrs         []string
}

func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.firstErrs) < 10 {
			t.firstErrs = append(t.firstErrs, err.Error())
		}
	}
}

type bench struct {
	name   string
	seed   int64
	window time.Duration
	traced bool
	tr     *tracer // used by traced units only
	chk    *checker
	tally  tally
	acc    e2eAcc
	layer  layerAcc
	serve  *serveAcc    // serve-mix, or the serve probe of a traced run
	rep    orion.Config // the workload's representative simulation
	// probing is set while the traced run's layer probes execute.
	probing bool
	// profile is where a traced run's CPU profile of the measurement
	// window goes.
	profile string
	// tracedWalls and untracedWalls pair up for the tracing overhead.
	tracedWalls, untracedWalls []float64
	perLayer                   map[string]float64
	info                       []string
}

func (b *bench) note(format string, args ...any) {
	b.info = append(b.info, fmt.Sprintf(format, args...))
}

// settle counts one operation, checks its simulated output, and returns
// the operation's error or the check's.
func (b *bench) settle(key string, res *orion.Result, err error) error {
	if err == nil {
		err = b.chk.check(key, res)
	}
	b.tally.op(err)
	return err
}

// recordSim files a finished simulation: end-to-end samples from untraced
// units, per-layer samples from traced ones.
func (b *bench) recordSim(tr *tracer, st simRun) {
	if tr != nil {
		b.recordLayer(tr, st)
		return
	}
	b.acc.mu.Lock()
	defer b.acc.mu.Unlock()
	b.acc.setups = append(b.acc.setups, st.build.Seconds())
	b.acc.nsPerEvent = append(b.acc.nsPerEvent, float64(st.run.Nanoseconds())/float64(max(events(st.res), 1)))
	b.acc.opLatMs = append(b.acc.opLatMs, ms(st.build+st.run))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig5-sweep, mesh32-idle, mesh32-busy or serve-mix")
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	golden := fs.Bool("write-golden", false, "merge this run's digests into perfbench/golden.json (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	work, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if *golden && *seed != defaultSeed {
		fmt.Fprintf(stderr, "perfbench: -write-golden needs the default seed %d\n", defaultSeed)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cleared := scrubEnv()
	host := fingerprint()
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "# host %s\n", hostLine)
	if len(cleared) > 0 {
		fmt.Fprintf(stdout, "# cleared environment: %s\n", strings.Join(cleared, " "))
	}

	chk, err := newChecker(*seed == defaultSeed && !*golden)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{name: *name, seed: *seed, window: time.Duration(*secs * float64(time.Second)),
		traced: *trace == 1, chk: chk, perLayer: map[string]float64{}}
	if b.traced {
		b.tr = newTracer()
	}
	// Every run must end well inside the caller's limit, whatever happens.
	ctx, cancel := context.WithTimeout(context.Background(), b.window+150*time.Second)
	defer cancel()

	if b.traced {
		b.profile = filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d.pprof", b.name, b.seed))
	}
	err = work(b, ctx)
	if err == nil && b.traced {
		err = b.layerProbes(ctx)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.name, err)
		return 1
	}
	if *golden {
		if err := chk.writeGolden(filepath.Join("perfbench", "golden.json")); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	e2e := b.endToEnd()
	keys := sortedKeys(e2e)
	var line []string
	for _, k := range keys {
		line = append(line, fmt.Sprintf("%s=%.6g%s", k, e2e[k], endToEnd[k]))
	}
	fmt.Fprintf(stdout, "# end-to-end (untraced units): %s\n", strings.Join(line, " "))
	b.acc.mu.Lock()
	fmt.Fprintf(stdout, "# samples: wall_s n=%d %.4g, setup_s n=%d, ns_per_event n=%d, p50_ms n=%d, ops=%d\n",
		len(b.acc.walls), b.acc.walls, len(b.acc.setups), len(b.acc.nsPerEvent), len(b.acc.opLatMs), b.acc.ops)
	b.acc.mu.Unlock()
	for _, s := range b.info {
		fmt.Fprintf(stdout, "# %s\n", s)
	}
	b.tally.mu.Lock()
	attempted, failed, errs := b.tally.attempted, b.tally.failed, b.tally.firstErrs
	b.tally.mu.Unlock()
	fmt.Fprintf(stdout, "# error_rate=%g (%d failed of %d operations)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, e := range errs {
		fmt.Fprintf(stdout, "# failure: %s\n", e)
	}

	metrics, units := e2e, endToEnd
	if b.traced {
		metrics, units = b.perLayer, perLayerUnits
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", b.name, b.seed))
		if err := writeTrace(path, traceFile{Host: host, Workload: b.name, Seed: b.seed,
			Spans: b.tr.snapshot(), PerLayer: b.perLayer}); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	correct := failed == 0 && attempted > 0
	out := map[string]any{}
	for name, unit := range units {
		v, ok := metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			fmt.Fprintf(stdout, "# missing metric %s\n", name)
			continue
		}
		out[name] = map[string]any{"value": v, "unit": unit}
	}
	result, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", result)
	return 0
}

// endToEnd computes the end-to-end metrics from the untraced units.
func (b *bench) endToEnd() map[string]float64 {
	a := &b.acc
	a.mu.Lock()
	defer a.mu.Unlock()
	return map[string]float64{
		"wall_s":       median(a.walls),
		"setup_s":      median(a.setups),
		"ns_per_event": median(a.nsPerEvent),
		"alloc_mb":     float64(a.alloc) / float64(max(a.ops, 1)) / 1e6,
		"live_heap_mb": a.liveMB,
		"req_per_s":    median(a.rates),
		"p50_ms":       median(a.opLatMs),
	}
}

// recordLayer files a traced simulation's per-layer samples; simulations
// run by the layer probes are not the workload's and are left out.
func (b *bench) recordLayer(tr *tracer, st simRun) {
	if tr != nil && !b.probing {
		b.layer.add(st)
	}
}

// iterate repeats a unit of work until the measurement window has passed.
// A traced run alternates untraced and traced units, so one invocation
// yields both the per-layer numbers and the tracing overhead. When
// unitIsWall is set the unit's duration is the workload's wall_s sample.
// A unit reports the operations it settled and the time it spent on them
// (0 means its whole duration).
func (b *bench) iterate(ctx context.Context, unitIsWall bool, unit func(tr *tracer) (ops int, busy time.Duration, err error)) error {
	minUnits := 1
	if b.traced {
		minUnits = 2
		f, err := os.Create(b.profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	deadline := time.Now().Add(b.window)
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var tr *tracer
		if b.traced && i%2 == 1 {
			tr = b.tr
		}
		// Every unit starts from a collected heap, so garbage a previous
		// unit left does not land on this one's clock.
		runtime.GC()
		a0 := totalAlloc()
		t0 := time.Now()
		ops, busy, err := unit(tr)
		wall := time.Since(t0)
		if busy == 0 {
			busy = wall
		}
		alloc := totalAlloc() - a0
		if err != nil {
			return err
		}
		if tr == nil {
			b.acc.mu.Lock()
			b.acc.ops += ops
			b.acc.rates = append(b.acc.rates, float64(ops)/busy.Seconds())
			b.acc.alloc += alloc
			b.acc.mu.Unlock()
		}
		if unitIsWall {
			b.wallSample(tr, wall.Seconds())
		}
	}
	return nil
}

// wallSample records one wall_s sample from a traced or untraced unit.
func (b *bench) wallSample(tr *tracer, s float64) {
	b.acc.mu.Lock()
	defer b.acc.mu.Unlock()
	if b.probing {
		return
	}
	if tr != nil {
		b.tracedWalls = append(b.tracedWalls, s)
		return
	}
	b.untracedWalls = append(b.untracedWalls, s)
	b.acc.walls = append(b.acc.walls, s)
}

// scrubEnv clears the environment knobs that would change what the
// benchmark measures and returns the names it cleared.
func scrubEnv() []string {
	var cleared []string
	for _, k := range []string{"ORION_WORKERS", "ORION_ALWAYS_TICK", "ORION_INVARIANTS"} {
		if _, ok := os.LookupEnv(k); ok {
			os.Unsetenv(k)
			cleared = append(cleared, k)
		}
	}
	return cleared
}

// hostInfo identifies the machine a result came from, so numbers from
// unlike hosts are never compared silently.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"loadavg"`
}

func fingerprint() hostInfo {
	h := hostInfo{CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), LoadAvg: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			h.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return h
}

func workloadNames() []string { return sortedKeys(workloads) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goBinary finds the go command for `go tool pprof`.
func goBinary() (string, error) {
	p, err := exec.LookPath("go")
	if err != nil {
		return "", errors.New("go command not on PATH (needed for go tool pprof)")
	}
	return p, nil
}
