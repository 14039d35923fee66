// Command orion runs one interconnection-network power-performance
// simulation and prints latency, throughput, total power, the per-component
// power breakdown, and the per-node power map.
//
// Examples:
//
//	# The paper's VC64 on-chip configuration at 10% injection:
//	orion -router vc -vcs 8 -depth 8 -flits 256 -rate 0.10
//
//	# Wormhole router with 64-flit buffers (WH64):
//	orion -router wormhole -depth 64 -flits 256 -rate 0.08
//
//	# Chip-to-chip central-buffered router (Section 4.4):
//	orion -router cb -depth 64 -flits 32 -freq 1 -chip2chip -rate 0.06 \
//	      -cb-banks 4 -cb-rows 2560
//
//	# Broadcast workload from node (1,2):
//	orion -router vc -vcs 2 -depth 8 -flits 256 -pattern broadcast \
//	      -source 9 -rate 0.2
//
//	# Replay a communication trace:
//	orion -router vc -vcs 2 -depth 8 -flits 64 -trace workload.txt
//
//	# Long run with periodic crash-safe snapshots, resumable after a kill:
//	orion -rate 0.1 -snapshot run.orsn -snapshot-every 5000
//	orion -rate 0.1 -snapshot run.orsn -resume
//
// SIGINT/SIGTERM stop the simulation, write a final snapshot when
// -snapshot is set, and exit with status 128+signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"orion"
)

var (
	width    = flag.Int("width", 4, "network width")
	zdim     = flag.Int("z", 0, "third dimension radix (k-ary 3-cube; torus only)")
	height   = flag.Int("height", 4, "network height")
	mesh     = flag.Bool("mesh", false, "mesh instead of torus")
	topoSpec = flag.String("topology", "",
		"topology spec overriding -width/-height/-z/-mesh: torusWxH, torusWxHxD, meshWxH (e.g. mesh32x32), cmeshWxHxC")

	vcs     = flag.Int("vcs", 2, "virtual channels per port (vc router)")
	depth   = flag.Int("depth", 8, "input buffer depth in flits (per VC for vc routers)")
	flits   = flag.Int("flits", 256, "flit width in bits")
	cbBanks = flag.Int("cb-banks", 4, "central buffer banks (cb router)")
	cbRows  = flag.Int("cb-rows", 2560, "central buffer rows per bank (cb router)")
	cbRead  = flag.Int("cb-read", 2, "central buffer read ports (cb router)")
	cbWrite = flag.Int("cb-write", 2, "central buffer write ports (cb router)")

	chip2chip = flag.Bool("chip2chip", false, "chip-to-chip links with constant power")
	linkMm    = flag.Float64("link-mm", 3, "on-chip link length in mm")
	linkWatts = flag.Float64("link-watts", 3, "chip-to-chip link power in W")

	freqGHz = flag.Float64("freq", 2, "clock frequency in GHz")
	vdd     = flag.Float64("vdd", 0, "supply voltage override in V (0 = process default)")
	feature = flag.Float64("feature", 0, "feature size in µm (0 = 0.1)")

	source   = flag.Int("source", 0, "broadcast source / hotspot node")
	fraction = flag.Float64("fraction", 0.2, "hotspot traffic fraction")
	rate     = flag.Float64("rate", 0.1, "injection rate in packets/cycle/node")
	pktLen   = flag.Int("packet", 5, "packet length in flits")
	seed     = flag.Int64("seed", 1, "workload seed")
	tracePth = flag.String("trace", "", "replay a trace file (cycle src dst per line) instead of a pattern")

	samples = flag.Int("samples", 10000, "measured sample packets")
	warmup  = flag.Int64("warmup", 1000, "warm-up cycles")
	workers = flag.Int("workers", 0,
		"parallel tick workers (0 = ORION_WORKERS env or all cores; capped at half the node count; results are identical at any count)")

	showMap = flag.Bool("map", true, "print the per-node power map")

	configPath = flag.String("config", "", "load the full configuration from a JSON file (other flags ignored)")
	dumpConfig = flag.Bool("dump-config", false, "print the effective configuration as JSON and exit")
	profileWin = flag.Int64("profile", 0, "sample power every N cycles and print the power-vs-time trace")

	faultSpec = flag.String("faults", "",
		"inject faults: comma-separated kind:node:port[:start[:duration[:rate]]] "+
			"(kinds: link-stall, link-drop, port-stall, bit-flip)")
	faultLinks = flag.Int("fault-links", 0, "inject N random link faults of -fault-kind instead of -faults")
	faultSeed  = flag.Int64("fault-seed", 1, "fault schedule seed (drives link picks and bit-flip draws)")
	faultStart = flag.Int64("fault-start", 0, "first faulty cycle")
	faultDur   = flag.Int64("fault-duration", 0, "fault window in cycles (0 = permanent)")
	faultRate  = flag.Float64("fault-rate", 0.01, "per-flit corruption probability of bit-flip faults")

	snapPath   = flag.String("snapshot", "", "periodic checksummed state snapshot file (atomic rewrite; resume with -resume)")
	snapEvery  = flag.Int64("snapshot-every", 10000, "cycles between periodic snapshots (with -snapshot)")
	resumeSnap = flag.Bool("resume", false, "resume from the -snapshot file via verified deterministic replay")
	selfCheck  = flag.Int64("selfcheck", 0,
		"divergence self-check: run the fast and reference event paths in lockstep, comparing state hashes every N cycles, then exit")
)

// Enum flags accept every name of the enum's table (config-file
// spellings and aliases alike); a bad value fails in flag.Parse.
var (
	routerKind = orion.VirtualChannel
	pattern    = orion.PatternUniform
	deadlock   = orion.DeadlockBubble
	faultKind  = orion.FaultLinkStall
	invariants = orion.InvariantAuto
)

func init() {
	flag.TextVar(&routerKind, "router", routerKind, "router kind: virtual-channel (vc), wormhole (wh), central-buffered (cb)")
	flag.TextVar(&pattern, "pattern", pattern,
		"traffic: uniform, broadcast, transpose, bit-complement (bitcomp), tornado, hotspot, neighbor")
	flag.TextVar(&deadlock, "deadlock", deadlock, "torus deadlock avoidance: bubble, dateline, none")
	flag.TextVar(&faultKind, "fault-kind", faultKind, "random link fault kind: link-stall, link-drop, bit-flip")
	flag.TextVar(&invariants, "invariants", invariants, "runtime invariant checker: auto, on, off")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "orion: "+format+"\n", args...)
	os.Exit(1)
}

func buildConfig() orion.Config {
	cfg := orion.Config{
		Width: *width, Height: *height, Depth: *zdim, Mesh: *mesh,
		Router: orion.RouterConfig{
			VCs:         *vcs,
			BufferDepth: *depth,
			FlitBits:    *flits,
		},
		Tech: orion.TechConfig{FreqGHz: *freqGHz, Vdd: *vdd, FeatureUm: *feature},
		Traffic: orion.TrafficConfig{
			Rate:         *rate,
			PacketLength: *pktLen,
			Seed:         *seed,
		},
		Sim: orion.SimConfig{SamplePackets: *samples, WarmupCycles: *warmup},
	}
	if *topoSpec != "" {
		spec, err := orion.ParseTopologySpec(*topoSpec)
		if err != nil {
			fail("%v", err)
		}
		spec.Apply(&cfg)
	}

	cfg.Router.Kind = routerKind
	if routerKind == orion.CentralBuffered {
		cfg.Router.CentralBuffer = orion.CentralBufferConfig{
			Banks: *cbBanks, Rows: *cbRows, ReadPorts: *cbRead, WritePorts: *cbWrite,
		}
	}

	if *chip2chip {
		cfg.Link = orion.LinkConfig{ChipToChip: true, ConstantWatts: *linkWatts}
	} else {
		cfg.Link = orion.LinkConfig{LengthMm: *linkMm}
	}

	cfg.Traffic.Pattern = orion.Pattern{Kind: pattern}
	switch pattern {
	case orion.PatternBroadcast:
		cfg.Traffic.Pattern.Source = *source
	case orion.PatternHotspot:
		cfg.Traffic.Pattern.Source, cfg.Traffic.Pattern.Fraction = *source, *fraction
	}
	cfg.Sim.Deadlock = deadlock
	return cfg
}

func main() {
	os.Exit(run())
}

func run() int {
	flag.Parse()
	var cfg orion.Config
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fail("%v", err)
		}
		cfg, err = orion.LoadConfigJSON(data)
		if err != nil {
			fail("%v", err)
		}
	} else {
		cfg = buildConfig()
	}
	if *profileWin > 0 {
		cfg.Sim.ProfileWindowCycles = *profileWin
	}
	if *workers != 0 {
		cfg.Sim.Workers = *workers
	}
	applyFaultFlags(&cfg)
	if *dumpConfig {
		data, err := orion.ConfigJSON(cfg)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(data))
		return 0
	}
	if *tracePth != "" && (*snapPath != "" || *resumeSnap) {
		fail("-snapshot/-resume do not apply to trace replay")
	}

	// SIGINT/SIGTERM cancel the run; a final snapshot is written when
	// -snapshot is set, and the process exits 128+signal.
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
		fmt.Fprintf(os.Stderr, "orion: %v: stopping\n", s)
		caught <- s
		cancel()
	}()

	if *selfCheck > 0 {
		if err := orion.VerifyEventPath(ctx, cfg, *selfCheck, 0); err != nil {
			fail("self-check: %v", err)
		}
		fmt.Printf("self-check passed: fast and reference event paths agree (state hash compared every %d cycles)\n", *selfCheck)
		return 0
	}

	var (
		res *orion.Result
		sm  *orion.Sim
		err error
	)
	switch {
	case *tracePth != "":
		f, ferr := os.Open(*tracePth)
		if ferr != nil {
			fail("%v", ferr)
		}
		defer f.Close()
		res, err = orion.RunTrace(cfg, f)
	case *snapPath != "":
		if *resumeSnap {
			sm, err = orion.ResumeFile(ctx, cfg, *snapPath)
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("resumed from %s at cycle %d (replay verified)\n", *snapPath, sm.Cycle())
		} else {
			sm, err = orion.NewSim(cfg)
			if err != nil {
				fail("%v", err)
			}
		}
		sm.SetSnapshotFile(*snapPath, *snapEvery)
		res, err = sm.RunContext(ctx)
	default:
		res, err = orion.RunContext(ctx, cfg)
	}
	if err != nil {
		select {
		case s := <-caught:
			if errors.Is(err, context.Canceled) && sm != nil {
				if serr := sm.SaveSnapshot(*snapPath); serr != nil {
					fmt.Fprintf(os.Stderr, "orion: final snapshot: %v\n", serr)
				} else {
					fmt.Fprintf(os.Stderr, "orion: interrupted at cycle %d; snapshot written to %s (resume with -resume)\n",
						sm.Cycle(), *snapPath)
				}
			}
			if ss, ok := s.(syscall.Signal); ok {
				return 128 + int(ss)
			}
			return 1
		default:
		}
		fail("%v", err)
	}

	shape := fmt.Sprintf("%dx%d", cfg.Width, cfg.Height)
	if cfg.Depth > 1 {
		shape = fmt.Sprintf("%sx%d", shape, cfg.Depth)
	}
	if cfg.Concentration > 1 {
		shape = fmt.Sprintf("%sx%d", shape, cfg.Concentration)
	}
	fmt.Printf("network:        %s %s, %s router, %d-bit flits\n",
		shape, topoName(cfg), cfg.Router.Kind, cfg.Router.FlitBits)
	fmt.Printf("sample:         %d packets over %d measured cycles (%d total)\n",
		res.SamplePackets, res.MeasuredCycles, res.TotalCycles)
	fmt.Printf("latency:        avg %.2f cycles (min %.0f, max %.0f)\n",
		res.AvgLatency, res.MinLatency, res.MaxLatency)
	fmt.Printf("throughput:     %.4f flits/node/cycle (%.4f packets/node/cycle)\n",
		res.AcceptedFlitsPerNodeCycle, res.AcceptedPacketsPerNodeCycle)
	fmt.Printf("energy:         %.4g J over the measurement window\n", res.EnergyJ)
	fmt.Printf("total power:    %.4g W\n", res.TotalPowerW)
	b := res.Breakdown
	fmt.Printf("breakdown:      buffer %.4g W | crossbar %.4g W | arbiter %.4g W | link %.4g W | central buffer %.4g W\n",
		b.BufferW, b.CrossbarW, b.ArbiterW, b.LinkW, b.CentralBufferW)
	if res.StaticPowerW > 0 {
		fmt.Printf("leakage:        %.4g W static (included in totals)\n", res.StaticPowerW)
	}
	ev := res.Events
	fmt.Printf("events:         %d buf writes, %d buf reads, %d arbitrations, %d VC allocs, %d xbar traversals, %d link traversals, %d/%d CB writes/reads\n",
		ev.BufferWrites, ev.BufferReads, ev.Arbitrations, ev.VCAllocations,
		ev.CrossbarTraversals, ev.LinkTraversals, ev.CentralBufferWrites, ev.CentralBufferReads)
	if cfg.Faults != nil {
		fs := res.Faults
		fmt.Printf("faults:         %d packets (%d flits) dropped, %d sample packets lost, %d flits corrupted (%d bits), %d link-stall and %d port-stall blocked cycles\n",
			fs.DroppedPackets, fs.DroppedFlits, res.DroppedSamplePackets,
			fs.FlippedFlits, fs.FlippedBits, fs.StalledLinkCycles, fs.StalledPortCycles)
	}
	if *showMap {
		m, err := orion.HeatmapString(res, cfg.Width, cfg.Height)
		if err == nil {
			fmt.Println("per-node power (W), (0,0) bottom-left:")
			fmt.Print(m)
		}
	}
	if len(res.PowerProfileW) > 0 {
		fmt.Printf("power profile (W per %d-cycle window):\n", *profileWin)
		for i, w := range res.PowerProfileW {
			fmt.Printf("  %8d  %.4g\n", int64(i)*(*profileWin), w)
		}
	}
	return 0
}

func topoName(cfg orion.Config) string {
	switch {
	case cfg.Concentration > 1:
		return "cmesh"
	case cfg.Mesh:
		return "mesh"
	default:
		return "torus"
	}
}

// applyFaultFlags translates the fault and invariant flags onto the
// configuration (after -config loading, so flags refine a config file).
func applyFaultFlags(cfg *orion.Config) {
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
		rate := 0.0
		if faultKind == orion.FaultBitFlip {
			rate = *faultRate
		}
		fs, err := orion.RandomLinkFaults(*cfg, *faultSeed, *faultLinks, faultKind, *faultStart, *faultDur, rate)
		if err != nil {
			fail("%v", err)
		}
		faults = append(faults, fs...)
	}
	if len(faults) > 0 {
		cfg.Faults = &orion.FaultsConfig{Seed: *faultSeed, Faults: faults}
	}
}
