package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	_ "embed"

	"orion"
)

// digest fingerprints a result's simulated outputs: cycle counts, packet and
// flit counts, latency statistics, power and energy, and every event
// count. Floats enter by bit pattern, so any change to a simulated number
// changes the digest.
func digest(r *orion.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, v := range []int64{r.TotalCycles, r.MeasuredCycles, r.SamplePackets, r.InjectedFlits, r.EjectedFlits,
		r.Events.BufferWrites, r.Events.BufferReads, r.Events.Arbitrations, r.Events.VCAllocations,
		r.Events.CrossbarTraversals, r.Events.LinkTraversals, r.Events.CentralBufferWrites, r.Events.CentralBufferReads} {
		put(uint64(v))
	}
	b := r.Breakdown
	for _, v := range []float64{r.AvgLatency, r.MinLatency, r.MaxLatency, r.LatencyP50, r.LatencyP99,
		r.TotalPowerW, r.EnergyJ, b.BufferW, b.CrossbarW, b.ArbiterW, b.LinkW, b.CentralBufferW} {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// events is the total number of simulated power events in a result.
func events(r *orion.Result) int64 {
	e := r.Events
	return e.BufferWrites + e.BufferReads + e.Arbitrations + e.VCAllocations + e.CrossbarTraversals +
		e.LinkTraversals + e.CentralBufferWrites + e.CentralBufferReads
}

// goldenJSON holds the digests of every simulated output at the default
// seed, keyed by workload point. Regenerate with -write-golden after a
// change that is meant to alter simulated results.
//
//go:embed golden.json
var goldenJSON []byte

// checker verifies simulated outputs. At the default seed every key must
// match golden.json; at any seed, a key seen twice in one run must give the
// same digest both times.
type checker struct {
	golden map[string]string // nil when the seed has no golden table

	mu   sync.Mutex
	seen map[string]string
}

func newChecker(defaultSeed bool) (*checker, error) {
	c := &checker{seen: make(map[string]string)}
	if defaultSeed {
		if err := json.Unmarshal(goldenJSON, &c.golden); err != nil {
			return nil, fmt.Errorf("reading golden.json: %w", err)
		}
	}
	return c, nil
}

// check records the result under key and reports a mismatch as an error.
func (c *checker) check(key string, r *orion.Result) error {
	if r == nil {
		return fmt.Errorf("%s: no result", key)
	}
	d := digest(r)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.seen[key]; ok && prev != d {
		return fmt.Errorf("%s: digest %s differs from %s earlier in this run", key, d, prev)
	}
	c.seen[key] = d
	if c.golden != nil {
		want, ok := c.golden[key]
		if !ok {
			return fmt.Errorf("%s: no golden digest at the default seed", key)
		}
		if want != d {
			return fmt.Errorf("%s: digest %s, golden %s", key, d, want)
		}
	}
	return nil
}

// writeGolden merges the digests seen in this run into the golden file.
func (c *checker) writeGolden(path string) error {
	all := make(map[string]string)
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return err
	}
	c.mu.Lock()
	for k, v := range c.seen {
		all[k] = v
	}
	c.mu.Unlock()
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []byte("{\n")
	for i, k := range keys {
		line, _ := json.Marshal(k)
		val, _ := json.Marshal(all[k])
		out = append(out, fmt.Sprintf("  %s: %s", line, val)...)
		if i < len(keys)-1 {
			out = append(out, ',')
		}
		out = append(out, '\n')
	}
	out = append(out, "}\n"...)
	return os.WriteFile(path, out, 0o644)
}
