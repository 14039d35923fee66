package orion

import (
	"encoding"
	"fmt"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := OnChip4x4(VC64(), 0.1)
	cfg.Traffic.Pattern = BroadcastFrom(9)
	cfg.Sim.Deadlock = DeadlockDateline
	cfg.Sim.Arbiter = QueuingArbiter
	cfg.Router.Speculative = true
	cfg.Link.DVS = &DVSPolicy{WindowCycles: 128}

	data, err := ConfigJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"virtual-channel"`, `"broadcast"`, `"dateline"`, `"queuing"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s:\n%s", want, s)
		}
	}

	back, err := LoadConfigJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Router.Kind != VirtualChannel || back.Router.VCs != 8 ||
		back.Traffic.Pattern.Kind != PatternBroadcast || back.Traffic.Pattern.Source != 9 ||
		back.Sim.Deadlock != DeadlockDateline || back.Sim.Arbiter != QueuingArbiter ||
		!back.Router.Speculative || back.Link.DVS == nil || back.Link.DVS.WindowCycles != 128 {
		t.Errorf("round trip lost fields: %+v", back)
	}
	// The round-tripped config must actually run.
	back.Sim.SamplePackets = 200
	back.Traffic.Pattern = Uniform() // broadcast at rate 0.1 is fine too, keep it quick
	if _, err := Run(back); err != nil {
		t.Fatalf("round-tripped config does not run: %v", err)
	}
}

func TestLoadConfigJSONStringEnums(t *testing.T) {
	src := `{
	  "Width": 4, "Height": 4,
	  "Router": {"Kind": "wormhole", "BufferDepth": 64, "FlitBits": 256},
	  "Link": {"LengthMm": 3},
	  "Traffic": {"Pattern": {"Kind": "uniform"}, "Rate": 0.05, "PacketLength": 5},
	  "Sim": {"SamplePackets": 200, "Deadlock": "bubble", "Arbiter": "round-robin"}
	}`
	cfg, err := LoadConfigJSON([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Router.Kind != Wormhole || cfg.Sim.Arbiter != RoundRobinArbiter {
		t.Errorf("parsed config wrong: %+v", cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplePackets != 200 {
		t.Errorf("measured %d packets", res.SamplePackets)
	}
}

func TestLoadConfigJSONErrors(t *testing.T) {
	if _, err := LoadConfigJSON([]byte(`{`)); err == nil {
		t.Error("malformed JSON should fail")
	}
	if _, err := LoadConfigJSON([]byte(`{"Router": {"Kind": "quantum"}}`)); err == nil {
		t.Error("unknown router kind should fail")
	}
	if _, err := LoadConfigJSON([]byte(`{"Traffic": {"Pattern": {"Kind": "zigzag"}}}`)); err == nil {
		t.Error("unknown pattern should fail")
	}
	if _, err := LoadConfigJSON([]byte(`{"Sim": {"Deadlock": "prayer"}}`)); err == nil {
		t.Error("unknown deadlock mode should fail")
	}
	// A structurally invalid config now fails at load time, with every
	// problem reported at once under field-qualified prefixes.
	_, err := LoadConfigJSON([]byte(`{"Width": -1, "Height": 4, "Traffic": {"Rate": 2}}`))
	if err == nil {
		t.Fatal("invalid config should fail validation at load")
	}
	for _, want := range []string{"Width/Height", "Traffic.Rate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("validation error missing %q: %v", want, err)
		}
	}
	// Integer enum values stay accepted.
	cfg, err := LoadConfigJSON([]byte(`{
	  "Width": 4, "Height": 4,
	  "Router": {"Kind": 1, "BufferDepth": 64, "FlitBits": 256},
	  "Link": {"LengthMm": 3},
	  "Traffic": {"Pattern": {"Kind": "uniform"}, "Rate": 0.05, "PacketLength": 5}
	}`))
	if err != nil {
		t.Fatalf("integer enum rejected: %v", err)
	}
	if cfg.Router.Kind != Wormhole {
		t.Errorf("integer enum parsed to %v", cfg.Router.Kind)
	}
}

// checkEnumNames pins one enum's name table: every value's String parses
// back to it, every alias parses to its value, an out-of-range value
// prints as Type(n), and an unknown name fails with the canonical names
// listed, leaving the destination alone.
func checkEnumNames[T interface {
	~int
	fmt.Stringer
}, P interface {
	*T
	encoding.TextUnmarshaler
}](t *testing.T, count int, aliases map[string]T, canonical string) {
	t.Helper()
	for v := T(0); int(v) < count; v++ {
		var back T
		if err := P(&back).UnmarshalText([]byte(v.String())); err != nil || back != v {
			t.Errorf("%T %d: %q parses to %d, %v", v, int(v), v.String(), int(back), err)
		}
	}
	for name, want := range aliases {
		var got T
		if err := P(&got).UnmarshalText([]byte(name)); err != nil || got != want {
			t.Errorf("%T alias %q parses to %v, %v; want %v", want, name, got, err, want)
		}
	}
	typ := strings.TrimPrefix(fmt.Sprintf("%T", T(0)), "orion.")
	if got := T(7).String(); got != typ+"(7)" {
		t.Errorf("out-of-range %s prints %q", typ, got)
	}
	keep := T(count - 1)
	err := P(&keep).UnmarshalText([]byte("quantum"))
	if err == nil || !strings.Contains(err.Error(), `"quantum" (want `+canonical+")") {
		t.Errorf("%s: unknown name error %v does not list %q", typ, err, canonical)
	}
	if keep != T(count-1) {
		t.Errorf("%s: failed parse overwrote the destination with %v", typ, keep)
	}
}

func TestEnumStrings(t *testing.T) {
	checkEnumNames(t, 3, map[string]RouterKind{
		"vc": VirtualChannel, "virtual-channel": VirtualChannel, "wh": Wormhole, "wormhole": Wormhole,
		"cb": CentralBuffered, "central-buffered": CentralBuffered,
	}, "virtual-channel, wormhole, central-buffered")
	checkEnumNames(t, 7, map[string]PatternKind{
		"uniform": PatternUniform, "bitcomp": PatternBitComplement, "bit-complement": PatternBitComplement,
		"neighbor": PatternNeighbor,
	}, "uniform, broadcast, transpose, bit-complement, tornado, hotspot, neighbor")
	checkEnumNames(t, 3, map[string]ArbiterKind{
		"matrix": MatrixArbiter, "rr": RoundRobinArbiter, "roundrobin": RoundRobinArbiter,
		"round-robin": RoundRobinArbiter, "queuing": QueuingArbiter,
	}, "matrix, round-robin, queuing")
	checkEnumNames(t, 3, map[string]DeadlockMode{
		"bubble": DeadlockBubble, "dateline": DeadlockDateline, "none": DeadlockNone,
	}, "bubble, dateline, none")
	checkEnumNames(t, 4, map[string]FaultKind{
		"link-stall": FaultLinkStall, "port-stall": FaultPortStall, "bitflip": FaultBitFlip, "bit-flip": FaultBitFlip,
	}, "link-stall, link-drop, port-stall, bit-flip")
	checkEnumNames(t, 3, map[string]InvariantMode{
		"auto": InvariantAuto, "1": InvariantOn, "on": InvariantOn, "true": InvariantOn,
		"0": InvariantOff, "off": InvariantOff, "false": InvariantOff,
	}, "auto, on, off")
}

// TestConfigJSONBytesPinned pins ConfigJSON's output byte for byte: config
// digests, serve cache keys and sweep-queue headers all hash these bytes,
// so a change to how any enum is written would orphan every cache and
// journal. The config sets every enum to a non-default value and holds
// one fault of each kind.
func TestConfigJSONBytesPinned(t *testing.T) {
	cfg := OnChip4x4(CB(), 0.05)
	cfg.Traffic.Pattern = Pattern{Kind: PatternHotspot, Source: 5, Fraction: 0.25}
	cfg.Sim.Arbiter = QueuingArbiter
	cfg.Sim.Deadlock = DeadlockNone
	cfg.CheckInvariants = InvariantOff
	cfg.Faults = &FaultsConfig{Seed: 3, Faults: []Fault{
		{Kind: FaultLinkStall, Node: 1, Port: 0, Start: 100, Duration: 50},
		{Kind: FaultLinkDrop, Node: 2, Port: 1},
		{Kind: FaultPortStall, Node: 3, Port: 2, Start: 10},
		{Kind: FaultBitFlip, Node: 4, Port: 3, Rate: 0.01},
	}}
	got, err := ConfigJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != pinnedConfigJSON {
		t.Errorf("ConfigJSON bytes changed:\n%s", got)
	}
	// An invalid value still renders (MarshalText never fails).
	cfg.Router.Kind = RouterKind(7)
	if got, err = ConfigJSON(cfg); err != nil || !strings.Contains(string(got), `"Kind": "RouterKind(7)"`) {
		t.Errorf("out-of-range kind: %v\n%s", err, got)
	}
}

const pinnedConfigJSON = `{
  "Width": 4,
  "Height": 4,
  "Depth": 0,
  "Mesh": false,
  "Concentration": 0,
  "BalancedTieRouting": false,
  "Router": {
    "Kind": "central-buffered",
    "VCs": 0,
    "BufferDepth": 64,
    "FlitBits": 32,
    "CentralBuffer": {
      "Banks": 4,
      "Rows": 2560,
      "ReadPorts": 2,
      "WritePorts": 2
    },
    "Speculative": false
  },
  "Link": {
    "ChipToChip": false,
    "LengthMm": 3,
    "ConstantWatts": 0,
    "DVS": null
  },
  "Tech": {
    "FeatureUm": 0,
    "Vdd": 0,
    "FreqGHz": 2
  },
  "Traffic": {
    "Pattern": {
      "Kind": "hotspot",
      "Source": 5,
      "Fraction": 0.25
    },
    "Rate": 0.05,
    "PacketLength": 5,
    "Seed": 0
  },
  "Sim": {
    "WarmupCycles": 0,
    "SamplePackets": 0,
    "MaxCycles": 0,
    "FixedActivity": false,
    "MuxTreeCrossbar": false,
    "Arbiter": "queuing",
    "Deadlock": "none",
    "IncludeLeakage": false,
    "ProfileWindowCycles": 0,
    "ReferenceEventPath": false,
    "ProgressWindowCycles": 0,
    "PointTimeout": 0,
    "PointRetries": 0
  },
  "Faults": {
    "Seed": 3,
    "Faults": [
      {
        "Kind": "link-stall",
        "Node": 1,
        "Port": 0,
        "Start": 100,
        "Duration": 50,
        "Rate": 0
      },
      {
        "Kind": "link-drop",
        "Node": 2,
        "Port": 1,
        "Start": 0,
        "Duration": 0,
        "Rate": 0
      },
      {
        "Kind": "port-stall",
        "Node": 3,
        "Port": 2,
        "Start": 10,
        "Duration": 0,
        "Rate": 0
      },
      {
        "Kind": "bit-flip",
        "Node": 4,
        "Port": 3,
        "Start": 0,
        "Duration": 0,
        "Rate": 0.01
      }
    ]
  },
  "CheckInvariants": "off"
}`
