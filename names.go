package orion

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

// Every public config enum has one name table below, and every reader of
// a name goes through it: String, JSON config files, the CLI flags
// (flag.TextVar), ParseFaultSpec and the ORION_INVARIANTS variable. A
// value's first entry is its canonical spelling — the one String,
// MarshalText and ConfigJSON write — and later entries are aliases that
// every reader accepts.

// enumName is one spelling of an enum value.
type enumName[T ~int] struct {
	name string
	v    T
}

// enumNames is an enum's name table; what names the enum in parse errors.
type enumNames[T ~int] struct {
	what  string
	names []enumName[T]
}

// format returns v's canonical name, or "Type(n)" for a value outside
// the table.
func (e enumNames[T]) format(v T) string {
	for _, n := range e.names {
		if n.v == v {
			return n.name
		}
	}
	return fmt.Sprintf("%s(%d)", reflect.TypeFor[T]().Name(), int(v))
}

// parse stores the value named s in dst. An unknown name leaves dst
// alone and fails with the canonical names listed.
func (e enumNames[T]) parse(dst *T, s string) error {
	for _, n := range e.names {
		if n.name == s {
			*dst = n.v
			return nil
		}
	}
	var want []string
	for _, n := range e.names {
		if e.format(n.v) == n.name {
			want = append(want, n.name)
		}
	}
	return fmt.Errorf("orion: unknown %s %q (want %s)", e.what, s, strings.Join(want, ", "))
}

// unmarshalJSON decodes a JSON enum field: a name via parse, or a bare
// integer, accepted for backward compatibility.
func (e enumNames[T]) unmarshalJSON(dst *T, data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		var v int
		if json.Unmarshal(data, &v) == nil {
			*dst = T(v)
			return nil
		}
		return fmt.Errorf("orion: %s: %w", e.what, err)
	}
	return e.parse(dst, s)
}

var routerKinds = enumNames[RouterKind]{"router kind", []enumName[RouterKind]{
	{"virtual-channel", VirtualChannel}, {"vc", VirtualChannel},
	{"wormhole", Wormhole}, {"wh", Wormhole},
	{"central-buffered", CentralBuffered}, {"cb", CentralBuffered},
}}

var patternKinds = enumNames[PatternKind]{"traffic pattern", []enumName[PatternKind]{
	{"uniform", PatternUniform},
	{"broadcast", PatternBroadcast},
	{"transpose", PatternTranspose},
	{"bit-complement", PatternBitComplement}, {"bitcomp", PatternBitComplement},
	{"tornado", PatternTornado},
	{"hotspot", PatternHotspot},
	{"neighbor", PatternNeighbor},
}}

var arbiterKinds = enumNames[ArbiterKind]{"arbiter kind", []enumName[ArbiterKind]{
	{"matrix", MatrixArbiter},
	{"round-robin", RoundRobinArbiter}, {"roundrobin", RoundRobinArbiter}, {"rr", RoundRobinArbiter},
	{"queuing", QueuingArbiter},
}}

var deadlockModes = enumNames[DeadlockMode]{"deadlock mode", []enumName[DeadlockMode]{
	{"bubble", DeadlockBubble},
	{"dateline", DeadlockDateline},
	{"none", DeadlockNone},
}}

var faultKinds = enumNames[FaultKind]{"fault kind", []enumName[FaultKind]{
	{"link-stall", FaultLinkStall},
	{"link-drop", FaultLinkDrop},
	{"port-stall", FaultPortStall},
	{"bit-flip", FaultBitFlip}, {"bitflip", FaultBitFlip},
}}

var invariantModes = enumNames[InvariantMode]{"invariant mode", []enumName[InvariantMode]{
	{"auto", InvariantAuto},
	{"on", InvariantOn}, {"1", InvariantOn}, {"true", InvariantOn},
	{"off", InvariantOff}, {"0", InvariantOff}, {"false", InvariantOff},
}}

// String implements fmt.Stringer.
func (k RouterKind) String() string { return routerKinds.format(k) }

// MarshalText implements encoding.TextMarshaler.
func (k RouterKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *RouterKind) UnmarshalText(b []byte) error { return routerKinds.parse(k, string(b)) }

// UnmarshalJSON implements json.Unmarshaler.
func (k *RouterKind) UnmarshalJSON(b []byte) error { return routerKinds.unmarshalJSON(k, b) }

// String implements fmt.Stringer.
func (k PatternKind) String() string { return patternKinds.format(k) }

// MarshalText implements encoding.TextMarshaler.
func (k PatternKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *PatternKind) UnmarshalText(b []byte) error { return patternKinds.parse(k, string(b)) }

// UnmarshalJSON implements json.Unmarshaler.
func (k *PatternKind) UnmarshalJSON(b []byte) error { return patternKinds.unmarshalJSON(k, b) }

// String implements fmt.Stringer.
func (k ArbiterKind) String() string { return arbiterKinds.format(k) }

// MarshalText implements encoding.TextMarshaler.
func (k ArbiterKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *ArbiterKind) UnmarshalText(b []byte) error { return arbiterKinds.parse(k, string(b)) }

// UnmarshalJSON implements json.Unmarshaler.
func (k *ArbiterKind) UnmarshalJSON(b []byte) error { return arbiterKinds.unmarshalJSON(k, b) }

// String implements fmt.Stringer.
func (m DeadlockMode) String() string { return deadlockModes.format(m) }

// MarshalText implements encoding.TextMarshaler.
func (m DeadlockMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *DeadlockMode) UnmarshalText(b []byte) error { return deadlockModes.parse(m, string(b)) }

// UnmarshalJSON implements json.Unmarshaler.
func (m *DeadlockMode) UnmarshalJSON(b []byte) error { return deadlockModes.unmarshalJSON(m, b) }

// String implements fmt.Stringer.
func (k FaultKind) String() string { return faultKinds.format(k) }

// MarshalText implements encoding.TextMarshaler.
func (k FaultKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *FaultKind) UnmarshalText(b []byte) error { return faultKinds.parse(k, string(b)) }

// UnmarshalJSON implements json.Unmarshaler.
func (k *FaultKind) UnmarshalJSON(b []byte) error { return faultKinds.unmarshalJSON(k, b) }

// String implements fmt.Stringer.
func (m InvariantMode) String() string { return invariantModes.format(m) }

// MarshalText implements encoding.TextMarshaler.
func (m InvariantMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *InvariantMode) UnmarshalText(b []byte) error { return invariantModes.parse(m, string(b)) }

// UnmarshalJSON implements json.Unmarshaler.
func (m *InvariantMode) UnmarshalJSON(b []byte) error { return invariantModes.unmarshalJSON(m, b) }
