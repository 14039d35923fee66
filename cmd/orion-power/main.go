// Command orion-power is the standalone power-analysis tool: it evaluates
// the architectural-level parameterized power models of the paper's
// Section 3 (Tables 2–4 plus the central buffer and link models) for one
// router configuration, with no simulation. The paper released its power
// models this way, "either as a separate power analysis tool, or as a
// plug-in to other network simulators".
//
// Examples:
//
//	# The Section 3.3 walkthrough router:
//	orion-power -router wormhole -depth 4 -flits 32
//
//	# The paper's VC64 on-chip router:
//	orion-power -router vc -vcs 8 -depth 8 -flits 256
//
//	# The Section 4.4 central-buffered router:
//	orion-power -router cb -depth 64 -flits 32 -chip2chip -freq 1
package main

import (
	"flag"
	"fmt"
	"os"

	"orion"
)

var (
	vcs       = flag.Int("vcs", 2, "virtual channels per port (vc router)")
	depth     = flag.Int("depth", 4, "buffer depth in flits")
	flits     = flag.Int("flits", 32, "flit width in bits")
	cbBanks   = flag.Int("cb-banks", 4, "central buffer banks")
	cbRows    = flag.Int("cb-rows", 2560, "central buffer rows per bank")
	chip2chip = flag.Bool("chip2chip", false, "chip-to-chip links (constant power)")
	linkMm    = flag.Float64("link-mm", 3, "on-chip link length in mm")
	linkWatts = flag.Float64("link-watts", 3, "chip-to-chip link power in W")
	freqGHz   = flag.Float64("freq", 2, "clock frequency in GHz")
	vdd       = flag.Float64("vdd", 0, "supply voltage override in V")
	feature   = flag.Float64("feature", 0, "feature size in µm (0 = 0.1)")
	muxtree   = flag.Bool("muxtree", false, "model a multiplexer-tree crossbar")
)

// Enum flags accept every name of the enum's table (config-file
// spellings and aliases alike); a bad value fails in flag.Parse.
var (
	routerKind = orion.Wormhole
	arbiter    = orion.MatrixArbiter
)

func init() {
	flag.TextVar(&routerKind, "router", routerKind, "router kind: virtual-channel (vc), wormhole (wh), central-buffered (cb)")
	flag.TextVar(&arbiter, "arbiter", arbiter, "arbiter model: matrix, round-robin (roundrobin, rr), queuing")
}

func main() {
	flag.Parse()
	cfg := orion.Config{
		Width: 4, Height: 4,
		Router: orion.RouterConfig{
			Kind:        routerKind,
			VCs:         *vcs,
			BufferDepth: *depth,
			FlitBits:    *flits,
		},
		Tech:    orion.TechConfig{FreqGHz: *freqGHz, Vdd: *vdd, FeatureUm: *feature},
		Traffic: orion.TrafficConfig{Pattern: orion.Uniform(), Rate: 0.1, PacketLength: 5},
		Sim:     orion.SimConfig{Arbiter: arbiter, MuxTreeCrossbar: *muxtree},
	}
	if routerKind != orion.VirtualChannel {
		cfg.Router.VCs = 0
	}
	if routerKind == orion.CentralBuffered {
		cfg.Router.CentralBuffer = orion.CentralBufferConfig{
			Banks: *cbBanks, Rows: *cbRows, ReadPorts: 2, WritePorts: 2,
		}
	}
	if *chip2chip {
		cfg.Link = orion.LinkConfig{ChipToChip: true, ConstantWatts: *linkWatts}
	} else {
		cfg.Link = orion.LinkConfig{LengthMm: *linkMm}
	}

	rep, err := orion.ComponentEnergies(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orion-power: %v\n", err)
		os.Exit(1)
	}

	pJ := func(j float64) string { return fmt.Sprintf("%10.4f pJ", j*1e12) }
	fmt.Printf("router: %s, %d-bit flits, buffer depth %d\n", cfg.Router.Kind, *flits, *depth)
	fmt.Println("-- FIFO buffer (Table 2) --")
	fmt.Printf("  read energy            %s\n", pJ(rep.BufferReadJ))
	fmt.Printf("  write energy (α=0.5)   %s\n", pJ(rep.BufferWriteAvgJ))
	fmt.Printf("  write energy (max)     %s\n", pJ(rep.BufferWriteMaxJ))
	if cfg.Router.Kind != orion.CentralBuffered {
		fmt.Println("-- crossbar (Table 3) --")
		fmt.Printf("  traversal (α=0.5)      %s\n", pJ(rep.CrossbarTraversalAvgJ))
		fmt.Printf("  control per grant      %s\n", pJ(rep.CrossbarCtrlJ))
	} else {
		fmt.Println("-- central buffer (Section 3.2) --")
		fmt.Printf("  read energy            %s\n", pJ(rep.CentralBufReadJ))
		fmt.Printf("  write energy           %s\n", pJ(rep.CentralBufWriteJ))
	}
	fmt.Println("-- arbiter (Table 4) --")
	fmt.Printf("  grant energy           %s\n", pJ(rep.ArbiterGrantJ))
	fmt.Printf("  request lines (α=0.5)  %s\n", pJ(rep.ArbiterRequestAvgJ))
	fmt.Println("-- link --")
	if *chip2chip {
		fmt.Printf("  constant power         %10.4f W (traffic-insensitive)\n", rep.LinkConstantW)
	} else {
		fmt.Printf("  traversal (α=0.5)      %s\n", pJ(rep.LinkTraversalAvgJ))
	}
	fmt.Println("-- totals --")
	fmt.Printf("  E_flit (Section 3.3)   %s\n", pJ(rep.FlitEnergyJ))
	fmt.Printf("  router area            %10.4f mm²\n", rep.RouterAreaUm2/1e6)
}
