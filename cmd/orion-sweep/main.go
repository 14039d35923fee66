// Command orion-sweep sweeps injection rates for one router configuration
// and prints the latency/power/throughput curve plus the saturation
// throughput (the paper's definition: the rate at which latency exceeds
// twice the zero-load latency, Section 4.1). Rate points run concurrently.
//
// Examples:
//
//	# Latency/power curve for the paper's VC64 on-chip router:
//	orion-sweep -preset vc64
//
//	# Custom sweep:
//	orion-sweep -router wormhole -depth 64 -flits 256 \
//	            -rates 0.02,0.06,0.10,0.14,0.18
//
//	# Crash-safe sweep: in-process workers run the points through a
//	# work-queue journal, fsynced per record; resume after a kill:
//	orion-sweep -preset vc64 -journal sweep.wal -resume -csv curve.csv
//
//	# Multi-process sweep: the -journal process creates the queue, runs its
//	# own workers and merges; extra -worker processes join it, on this
//	# host or on any host sharing the file (same config flags and rates).
//	# A killed worker loses its lease and the survivors re-run its points:
//	orion-sweep -preset vc64 -journal sweep.wal -csv curve.csv &
//	orion-sweep -preset vc64 -worker -journal sweep.wal
//
//	# Inspect a crashed or in-flight sweep:
//	orion-sweep -status -journal sweep.wal
//
//	# Remote backends: dispatch the points to orion-serve instances over
//	# HTTP (circuit breakers, retries, local fallback when all are down):
//	orion-sweep -preset vc64 -backends http://hostb:9090,http://hostc:9090 -csv curve.csv
//
// A sweep with a -journal runs through the work-queue journal format;
// without one (a -backends sweep included) it runs in memory.
// SIGINT/SIGTERM cancel the in-flight points, release their claims,
// flush partial results (table and CSV), and exit with status
// 128+signal. A journaled sweep restarted with -resume keeps
// every point the journal records as succeeded or deterministically
// failed; points whose worker was SIGKILLed are re-run once their claim's
// -lease expires.
//
// Exit status: 0 success; 1 errors; 128+signal when interrupted. With
// -status: 0 healthy, 3 when any journal point failed, 4 when any
// worker lease has expired (and no point failed).
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"orion"
	"orion/internal/prof"
	"orion/internal/remote"
)

var (
	preset  = flag.String("preset", "", "paper configuration: wh64, vc16, vc64, vc128, xb, cb")
	ratesIn = flag.String("rates", "0.02,0.04,0.06,0.08,0.10,0.12,0.14,0.16,0.18,0.20",
		"comma-separated injection rates")
	samples = flag.Int("samples", 5000, "sample packets per point")
	seed    = flag.Int64("seed", 1, "workload seed")

	topoSpec = flag.String("topology", "",
		"topology spec overriding the preset's or default 4x4 shape: torusWxH, torusWxHxD, meshWxH (e.g. mesh32x32), cmeshWxHxC")

	vcs        = flag.Int("vcs", 2, "virtual channels per port")
	depth      = flag.Int("depth", 8, "buffer depth in flits")
	flits      = flag.Int("flits", 256, "flit width in bits")
	chip2chip  = flag.Bool("chip2chip", false, "chip-to-chip links (3 W each)")
	csvOut     = flag.String("csv", "", "also write the curve to a CSV file for plotting")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file")

	faultSpec = flag.String("faults", "",
		"inject faults: comma-separated kind:node:port[:start[:duration[:rate]]] "+
			"(kinds: link-stall, link-drop, port-stall, bit-flip)")
	faultLinks = flag.Int("fault-links", 0, "inject N random link-drop faults (degraded-network curve)")
	faultSeed  = flag.Int64("fault-seed", 1, "fault schedule seed")
	pointTmo   = flag.Duration("point-timeout", 0, "per-point wall-clock deadline (0 = none), e.g. 30s")

	journalPath = flag.String("journal", "", "work-queue journal (JSON lines, fsynced per record) that makes the sweep crash-safe and resumable")
	resumeJrnl  = flag.Bool("resume", false, "resume from an existing -journal, keeping its settled points")
	retries     = flag.Int("retries", 1, "retries per transiently-failed point (panic or point timeout only)")
	workers     = flag.Int("workers", 0,
		"parallel tick workers per point (0 = 1: the sweep already runs points on all cores; results are identical at any count)")

	workerMode = flag.Bool("worker", false,
		"join the -journal work queue as one extra worker process (on this host or any host sharing the file)")
	statusMode = flag.Bool("status", false,
		"print per-point state of the -journal sweep (done/failed/claimed/pending) and exit")
	leaseDur = flag.Duration("lease", 5*time.Second,
		"work-queue claim lease: a worker silent this long is presumed dead and its points are stolen")

	backendsIn = flag.String("backends", "",
		"comma-separated orion-serve base URLs (http://host:port); sweep points are dispatched to these backends over HTTP, with circuit breakers and local fallback")
	noLocalFallback = flag.Bool("no-local-fallback", false,
		"with -backends: fail a point (typed backend-down error) when every backend is unreachable, instead of running it locally")
	backendRetries = flag.Int("backend-retries", 3,
		"with -backends: HTTP dispatch attempts per point before degrading to local execution")
)

// Enum flags accept every name of the enum's table (config-file
// spellings and aliases alike); a bad value fails in flag.Parse.
var (
	routerKind = orion.VirtualChannel
	invariants = orion.InvariantAuto
)

func init() {
	flag.TextVar(&routerKind, "router", routerKind,
		"router kind when no preset: virtual-channel (vc), wormhole (wh), central-buffered (cb)")
	flag.TextVar(&invariants, "invariants", invariants, "runtime invariant checker: auto, on, off")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "orion-sweep: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	os.Exit(run())
}

// run is main's body, returning the process exit status so deferred
// cleanup (profile flush, journal close) still happens before os.Exit.
// Interrupted sweeps exit 128+signal after flushing partial results;
// -status exits 3 when the journal records failed points and 4 when it
// records expired leases (and no failures).
func run() (status int) {
	flag.Parse()
	// Validate numeric flags at parse time: a zero or negative lease
	// would make every claim instantly stealable and a negative worker
	// count or retry budget is meaningless — fail fast with the field
	// named, before any journal is touched.
	if *leaseDur <= 0 {
		fail("-lease: must be positive, got %v", *leaseDur)
	}
	if *retries < 0 {
		fail("-retries: must not be negative, got %d", *retries)
	}
	if *workers < 0 {
		fail("-workers: must not be negative, got %d", *workers)
	}
	if *pointTmo < 0 {
		fail("-point-timeout: must not be negative, got %v", *pointTmo)
	}
	// The remote-dispatch flags are validated before any network or
	// journal activity: a typo in a backend URL fails with the list
	// position named, and the tuning flags are rejected when they cannot
	// mean anything (no -backends to tune).
	var backendURLs []string
	if *backendsIn != "" {
		var perr error
		backendURLs, perr = remote.ParseBackends(*backendsIn)
		if perr != nil {
			fail("-%v", perr)
		}
	}
	if *backendRetries <= 0 {
		fail("-backend-retries: must be positive, got %d", *backendRetries)
	}
	if *backendsIn == "" {
		explicitlySet := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicitlySet[f.Name] = true })
		if explicitlySet["no-local-fallback"] {
			fail("-no-local-fallback: requires -backends")
		}
		if explicitlySet["backend-retries"] {
			fail("-backend-retries: requires -backends")
		}
	}
	if *resumeJrnl && *journalPath == "" {
		fail("-resume: requires -journal")
	}
	if (*workerMode || *statusMode) && *journalPath == "" {
		fail("-worker and -status require -journal")
	}
	// A worker only claims and commits points; the -journal merger owns
	// the queue's creation and the output, so these would do nothing.
	if *workerMode && *csvOut != "" {
		fail("-csv: not written by -worker (the -journal merger writes the CSV)")
	}
	if *workerMode && *resumeJrnl {
		fail("-resume: not applied by -worker (the -journal merger resumes the queue)")
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "orion-sweep: %v\n", err)
			if status == 0 {
				status = 1
			}
		}
	}()

	var cfg orion.Config
	if *preset != "" {
		if cfg, err = orion.PaperPreset(*preset, 0); err != nil {
			fail("-preset: %v", err)
		}
	} else {
		cfg = orion.Config{
			Width: 4, Height: 4,
			Router:  orion.RouterConfig{Kind: routerKind, VCs: *vcs, BufferDepth: *depth, FlitBits: *flits},
			Traffic: orion.TrafficConfig{Pattern: orion.Uniform(), PacketLength: 5},
		}
		if routerKind == orion.CentralBuffered {
			cfg.Router.CentralBuffer = orion.CentralBufferConfig{Banks: 4, Rows: 2560, ReadPorts: 2, WritePorts: 2}
		}
		if *chip2chip {
			cfg.Link = orion.LinkConfig{ChipToChip: true, ConstantWatts: 3}
			cfg.Tech = orion.TechConfig{FreqGHz: 1}
		} else {
			cfg.Link = orion.LinkConfig{LengthMm: 3}
			cfg.Tech = orion.TechConfig{FreqGHz: 2}
		}
	}
	if *topoSpec != "" {
		spec, err := orion.ParseTopologySpec(*topoSpec)
		if err != nil {
			fail("%v", err)
		}
		spec.Apply(&cfg)
	}
	cfg.Sim.SamplePackets = *samples
	cfg.Traffic.Seed = *seed
	cfg.Sim.PointTimeout = *pointTmo
	cfg.Sim.Workers = *workers
	cfg.Sim.PointRetries = *retries
	cfg.CheckInvariants = invariants
	var faults []orion.Fault
	if *faultSpec != "" {
		fs, err := orion.ParseFaultSpec(*faultSpec)
		if err != nil {
			fail("%v", err)
		}
		faults = append(faults, fs...)
	}
	if *faultLinks > 0 {
		fs, err := orion.RandomLinkFaults(cfg, *faultSeed, *faultLinks, orion.FaultLinkDrop, 0, 0, 0)
		if err != nil {
			fail("%v", err)
		}
		faults = append(faults, fs...)
	}
	if len(faults) > 0 {
		cfg.Faults = &orion.FaultsConfig{Seed: *faultSeed, Faults: faults}
	}

	var rates []float64
	for _, tok := range strings.Split(*ratesIn, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			fail("bad rate %q: %v", tok, err)
		}
		rates = append(rates, r)
	}

	if *statusMode {
		return printStatus(*journalPath)
	}
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}

	// The backend pool, when -backends is set: points dispatch over HTTP
	// with per-try deadlines derived from the lease, circuit breakers,
	// and (unless opted out) local fallback. Workers and the merger
	// share the same pool wiring.
	var pool *remote.Pool
	var runner orion.PointRunner
	if len(backendURLs) > 0 {
		var perr error
		pool, perr = remote.NewPool(remote.Options{
			Backends:        backendURLs,
			Lease:           *leaseDur,
			Retries:         *backendRetries,
			NoLocalFallback: *noLocalFallback,
		})
		if perr != nil {
			fail("%v", perr)
		}
		runner = pool.RunPoint
	}
	printPoolStats := func() {
		if pool == nil {
			return
		}
		st := pool.Stats()
		fmt.Fprintf(os.Stderr,
			"orion-sweep: backends: %d remote, %d local-fallback, %d attempts (%d busy, %d failed), %d breaker trips\n",
			st.Remote, st.Local, st.Attempts, st.Busy, st.Failures, st.Trips)
	}

	// SIGINT/SIGTERM cancel the sweep context; in-flight points abort,
	// the journal keeps every already-completed point, and the partial
	// table and CSV below still print before the 128+signal exit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	caught := make(chan os.Signal, 1)
	go func() {
		s, ok := <-sigCh
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "orion-sweep: %v: cancelling in-flight points, flushing partial results\n", s)
		caught <- s
		cancel()
	}()

	if *workerMode {
		// Worker mode is quiet: no table, no CSV — the -journal merger
		// owns the output. The worker claims, heartbeats, runs and
		// commits points until the queue is drained or it is told to
		// stop.
		stats, werr := orion.SweepWorker(ctx, cfg, rates,
			orion.SweepWorkerOptions{Path: *journalPath, Lease: *leaseDur, Run: runner})
		fmt.Fprintf(os.Stderr, "orion-sweep: worker %d: %d claims (%d steals), %d commits, %d leases lost, %d backend-down\n",
			os.Getpid(), stats.Claims, stats.Steals, stats.Commits, stats.LeasesLost, stats.BackendDown)
		printPoolStats()
		if werr != nil && !errors.Is(werr, context.Canceled) {
			fail("worker: %v", werr)
		}
		return exitStatus(caught)
	}

	zl, err := orion.ZeroLoadLatency(cfg)
	if err != nil {
		fail("zero-load: %v", err)
	}
	fmt.Printf("zero-load latency: %.2f cycles\n", zl)
	if *resumeJrnl {
		if err := reportResume(*journalPath); err != nil {
			fail("%v", err)
		}
	}
	// Dispatch concurrency: a couple of in-flight points per backend
	// keeps the fleet busy without flooding any single admission queue.
	// Local points default to one per core (Workers 0).
	results, sweepErr := orion.SweepWith(ctx, cfg, rates, orion.SweepOptions{
		Journal: *journalPath,
		Resume:  *resumeJrnl,
		Lease:   *leaseDur,
		Run:     runner,
		Workers: 2 * len(backendURLs),
	})
	printPoolStats()
	if results == nil && sweepErr != nil {
		fail("%v", sweepErr)
	}
	pointErrs := make([]error, len(rates))
	var serr *orion.SweepError
	if errors.As(sweepErr, &serr) {
		for j, i := range serr.Points {
			pointErrs[i] = serr.Errs[j]
		}
	}
	fmt.Printf("%8s %12s %14s %12s\n", "rate", "latency", "throughput", "power(W)")
	for i, res := range results {
		if res == nil {
			fmt.Printf("%8.3f %12s %14s %12s  (%s)\n", rates[i], "--", "--", "--", classify(pointErrs[i]))
			continue
		}
		fmt.Printf("%8.3f %12.2f %14.4f %12.4g\n",
			rates[i], res.AvgLatency, res.AcceptedFlitsPerNodeCycle, res.TotalPowerW)
	}
	sat, satFound := orion.SaturationRate(rates, results, sweepErr, zl)
	if satFound {
		fmt.Printf("saturation throughput: %.3f packets/cycle/node (latency > 2x zero-load)\n", sat)
	} else {
		fmt.Println("saturation: not reached within the swept rates")
	}

	if *csvOut != "" {
		if err := writeCSV(*csvOut, rates, results); err != nil {
			fail("writing CSV: %v", err)
		}
		fmt.Printf("curve written to %s\n", *csvOut)
	}
	return exitStatus(caught)
}

// exitStatus is 128+signal when a caught signal interrupted the run,
// else 0.
func exitStatus(caught <-chan os.Signal) int {
	select {
	case s := <-caught:
		if ss, ok := s.(syscall.Signal); ok {
			return 128 + int(ss)
		}
		return 1
	default:
		return 0
	}
}

// reportResume prints how much of the journal at path a -resume keeps:
// "journal: resuming PATH, k/n points settled" whenever the file has a
// header, even when nothing is settled yet. A file that is not a queue
// journal — a retired v1 journal, say — fails here with its typed error
// before any worker starts.
func reportResume(path string) error {
	pts, err := orion.JournalStatus(path)
	if err != nil || len(pts) == 0 {
		return err
	}
	fmt.Printf("journal: resuming %s, %d/%d points settled\n", path, settled(pts), len(pts))
	return nil
}

// settled counts the points holding a committed result or failure.
func settled(pts []orion.PointState) int {
	n := 0
	for _, p := range pts {
		if p.State == "done" || p.State == "failed" {
			n++
		}
	}
	return n
}

// printStatus is -status: the per-point state of a sweep journal, for
// inspecting a crashed or in-flight sweep. The exit status is
// machine-readable health: 0 when every point is done, pending or
// freshly claimed; 3 when any point failed; 4 when any claim's lease has
// expired (a worker presumed dead) and nothing failed — so scripts and
// monitors can branch on a sweep's health without parsing the table.
func printStatus(path string) int {
	pts, err := orion.JournalStatus(path)
	if err != nil {
		fail("%v", err)
	}
	if len(pts) == 0 {
		fmt.Printf("journal %s: empty or missing\n", path)
		return 0
	}
	fmt.Printf("%5s %8s %-8s %-24s %s\n", "point", "rate", "state", "worker", "detail")
	failed, expired := 0, 0
	for _, p := range pts {
		detail := ""
		switch {
		case p.State == "failed":
			detail = p.Err
			failed++
		case p.State == "claimed" && p.LeaseExpired:
			detail = "lease expired (stealable)"
			expired++
		}
		fmt.Printf("%5d %8.3f %-8s %-24s %s\n", p.Index, p.Rate, p.State, p.Worker, detail)
	}
	fmt.Printf("%d/%d points settled\n", settled(pts), len(pts))
	switch {
	case failed > 0:
		fmt.Printf("unhealthy: %d failed point(s)\n", failed)
		return 3
	case expired > 0:
		fmt.Printf("unhealthy: %d expired lease(s)\n", expired)
		return 4
	}
	return 0
}

// causeText is the display tag of each failure code; other codes show
// as "failed".
var causeText = map[string]string{
	orion.CodeSaturated: "over-saturated",
	orion.CodeDeadlock:  "no progress",
	orion.CodeInvariant: "invariant violated",
	orion.CodeTimeout:   "point timeout",
	orion.CodeCancelled: "cancelled",
}

// classify renders a failed point's error as a short cause tag.
func classify(err error) string {
	if err == nil {
		return "run aborted"
	}
	cause, ok := causeText[orion.FailureCode(err)]
	if !ok {
		cause = "failed"
	}
	if errors.Is(err, orion.ErrFaulted) {
		cause += ", fault-induced"
	}
	return cause
}

// writeCSV emits one row per rate point with the quantities of the paper's
// figure axes plus the component power split.
func writeCSV(path string, rates []float64, results []*orion.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	header := []string{"rate", "latency_cycles", "throughput_flits_node_cycle", "power_w",
		"buffer_w", "crossbar_w", "arbiter_w", "link_w", "central_buffer_w"}
	if err := w.Write(header); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	for i, res := range results {
		row := []string{ff(rates[i])}
		if res == nil {
			row = append(row, "", "", "", "", "", "", "", "")
		} else {
			b := res.Breakdown
			row = append(row, ff(res.AvgLatency), ff(res.AcceptedFlitsPerNodeCycle), ff(res.TotalPowerW),
				ff(b.BufferW), ff(b.CrossbarW), ff(b.ArbiterW), ff(b.LinkW), ff(b.CentralBufferW))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
