package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"orion"
	"orion/internal/flit"
	"orion/internal/power"
	"orion/internal/router"
	"orion/internal/sim"
	"orion/internal/tech"
	"orion/internal/topology"
	"orion/internal/traffic"
)

// perCall times f over n calls, five times after one warm-up pass, and
// returns the median host ns per call.
func perCall(n int, f func(i int)) float64 {
	var xs []float64
	for rep := 0; rep < 6; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		if rep > 0 {
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
		}
	}
	return median(xs)
}

// shape is the router geometry a workload simulates.
type shape struct {
	ports, vcs, depth, flitBits int
	mesh                        bool
	width, height               int
	rate                        float64
}

func shapeOf(cfg orion.Config) shape {
	vcs := cfg.Router.VCs
	if vcs == 0 {
		vcs = 1
	}
	return shape{ports: 5, vcs: vcs, depth: cfg.Router.BufferDepth, flitBits: cfg.Router.FlitBits,
		mesh: cfg.Mesh, width: cfg.Width, height: cfg.Height, rate: cfg.Traffic.Rate}
}

// publishNs times one Bus.Publish of a buffer-write event with one typed
// listener per event type, the meter's subscription pattern.
func publishNs() float64 {
	var bus sim.Bus
	var sink float64
	for t := 0; t < sim.NumEventTypes; t++ {
		bus.SubscribeType(sim.EventType(t), func(e *sim.Event) { sink += float64(e.Port) })
	}
	data := []uint64{0xdeadbeefcafef00d, 0x0123456789abcdef, 42, 7}
	return perCall(1_000_000, func(i int) {
		bus.Publish(sim.Event{Type: sim.EvBufferWrite, Cycle: int64(i), Node: 3, Port: 1, Data: data})
	})
}

// powerNs times one call of each per-component power state at the
// workload's port, VC and flit shape, with seeded random payloads.
func powerNs(sh shape, seed int64) (map[string]float64, error) {
	t := tech.Default()
	t.FreqHz = 2e9
	buf, err := power.NewBuffer(power.BufferConfig{Flits: sh.depth, FlitBits: sh.flitBits, ReadPorts: 1, WritePorts: 1}, t)
	if err != nil {
		return nil, err
	}
	xb, err := power.NewCrossbar(power.CrossbarConfig{Kind: power.MatrixCrossbar, Inputs: sh.ports, Outputs: sh.ports, WidthBits: sh.flitBits}, t)
	if err != nil {
		return nil, err
	}
	arb, err := power.NewArbiter(power.ArbiterConfig{Kind: power.MatrixArbiter, Requesters: sh.ports - 1}, t)
	if err != nil {
		return nil, err
	}
	link, err := power.NewLink(power.LinkConfig{Kind: power.OnChipLink, WidthBits: sh.flitBits, LengthUm: 3000}, t)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 1))
	const n = 256
	payloads := make([][]uint64, n)
	reqs := make([]uint64, n)
	winners := make([]int, n)
	for i := range payloads {
		payloads[i] = make([]uint64, flit.PayloadWords(sh.flitBits))
		for w := range payloads[i] {
			payloads[i][w] = rng.Uint64()
		}
		flit.MaskPayload(payloads[i], sh.flitBits)
		reqs[i] = 1 + rng.Uint64N(1<<(sh.ports-1)-1)
		for winners[i] = 0; reqs[i]&(1<<winners[i]) == 0; winners[i]++ {
		}
	}
	bs, xs, as, ls := power.NewBufferState(buf), power.NewCrossbarState(xb), power.NewArbiterState(arb), power.NewLinkState(link)
	var sink float64
	var firstErr error
	keep := func(e float64, err error) {
		sink += e
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	out := map[string]float64{
		"buffer_write":      perCall(200_000, func(i int) { sink += bs.Write(payloads[i%n]) }),
		"crossbar_traverse": perCall(200_000, func(i int) { keep(xs.Traverse(i%sh.ports, (i/sh.ports)%sh.ports, payloads[i%n])) }),
		"arbitrate":         perCall(200_000, func(i int) { keep(as.Arbitrate(reqs[i%n], winners[i%n])) }),
		"link_traverse":     perCall(200_000, func(i int) { sink += ls.Traverse(payloads[i%n]) }),
	}
	if firstErr != nil {
		return nil, firstErr
	}
	_ = sink
	return out, nil
}

// routerTickNs times one engine step of a two-router fabric carrying
// traffic, per router: the routers' Tick over their wires plus the
// sources, sinks and latches around them.
func routerTickNs(cfg router.Config) (float64, error) {
	bus := &sim.Bus{}
	eng := sim.NewEngine(bus)
	var routers [2]router.Router
	for n := range routers {
		var err error
		if cfg.Kind == router.CentralBuffered {
			routers[n], err = router.NewCB(n, cfg, bus)
		} else {
			routers[n], err = router.NewXB(n, cfg, bus)
		}
		if err != nil {
			return 0, err
		}
	}
	connect := func(from router.Router, out int, to router.Router) error {
		data, cred := sim.NewWire[*flit.Flit]("data"), sim.NewLossyWire[flit.Credit]("credit")
		eng.Connect(data)
		eng.Connect(cred)
		if err := from.AttachOutput(out, data, cred, cfg.BufferDepth, false); err != nil {
			return err
		}
		return to.AttachInput(topology.Opposite(out), data, cred)
	}
	if err := connect(routers[0], topology.PortNorth, routers[1]); err != nil {
		return 0, err
	}
	if err := connect(routers[1], topology.PortSouth, routers[0]); err != nil {
		return 0, err
	}
	var src0 *router.Source
	for n := range routers {
		data, cred := sim.NewWire[*flit.Flit]("inject"), sim.NewLossyWire[flit.Credit]("inject-credit")
		eng.Connect(data)
		eng.Connect(cred)
		if err := routers[n].AttachInput(topology.PortLocal, data, cred); err != nil {
			return 0, err
		}
		src, err := router.NewSource(n, cfg.VCs, cfg.BufferDepth, data, cred)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			src0 = src
		}
		eject := sim.NewWire[*flit.Flit]("eject")
		eng.Connect(eject)
		if err := routers[n].AttachOutput(topology.PortLocal, eject, nil, 0, true); err != nil {
			return 0, err
		}
		sink, err := router.NewSink(n, eject, nil)
		if err != nil {
			return 0, err
		}
		eng.Register(src)
		eng.Register(routers[n])
		eng.Register(sink)
	}
	words := flit.PayloadWords(cfg.FlitBits)
	var id int64
	load := func(packets int) {
		for p := 0; p < packets; p++ {
			id++
			pkt := &flit.Packet{ID: id, Src: 0, Dst: 1, Route: []int{topology.PortNorth, topology.PortLocal}, Length: 5}
			fl := make([]*flit.Flit, 5)
			for i := range fl {
				kind := flit.Body
				switch i {
				case 0:
					kind = flit.Head
				case 4:
					kind = flit.Tail
				}
				payload := make([]uint64, words)
				for w := range payload {
					payload[w] = uint64(id)<<32 | uint64(i*8+w)
				}
				fl[i] = &flit.Flit{Packet: pkt, Seq: i, Kind: kind, Payload: payload}
			}
			src0.Enqueue(fl)
		}
	}
	// 64 packets keep the fabric busy for 300 steps (the router package's
	// own tick benchmark uses the same refill).
	const packets, steps = 64, 300
	var xs []float64
	for rep := 0; rep < 8; rep++ {
		load(packets)
		t0 := time.Now()
		for s := 0; s < steps; s++ {
			if err := eng.Step(); err != nil {
				return 0, err
			}
		}
		if rep > 0 {
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/steps/2)
		}
		for s := 0; s < 40; s++ { // drain before the next refill
			if err := eng.Step(); err != nil {
				return 0, err
			}
		}
	}
	return median(xs), nil
}

// trafficTickNs times Generator.Tick on the workload's topology and rate,
// per node.
func trafficTickNs(sh shape, seed int64) (float64, error) {
	var topo topology.Topology
	var err error
	if sh.mesh {
		topo, err = topology.NewMesh(sh.width, sh.height)
	} else {
		topo, err = topology.NewTorus(sh.width, sh.height)
	}
	if err != nil {
		return 0, err
	}
	nodes := topo.Nodes()
	g, err := traffic.NewGenerator(traffic.Config{Pattern: traffic.Uniform{Nodes: nodes},
		Rates: traffic.UniformRates(nodes, sh.rate), PacketLength: 5, FlitBits: sh.flitBits, Seed: seed}, topo)
	if err != nil {
		return 0, err
	}
	g.SetRecycling(true)
	var firstErr error
	perTick := perCall(max(1, 200_000/nodes), func(i int) {
		pkts, err := g.Tick(int64(i), false)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for _, p := range pkts {
			g.Recycle(p.Packet)
		}
	})
	return perTick / float64(nodes), firstErr
}

// modelBuildMs times orion.ComponentEnergies, the power-model build.
func modelBuildMs(cfg orion.Config) (float64, error) {
	var xs []float64
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		if _, err := orion.ComponentEnergies(cfg); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

// speedup runs cfg traced at the default worker count and at one worker.
// It returns the one-worker measure-phase ns per cycle over the default's
// and checks that both runs end in the same state and result.
func (b *bench) speedup(ctx context.Context, cfg orion.Config) (float64, *orion.Result, error) {
	root := b.tr.start("probe.speedup", 0, "")
	defer b.tr.end(root)
	var nsPerCycle [2]float64
	var hashes [2]uint64
	var digests [2]string
	var workers int
	var res *orion.Result
	for i, w := range []int{0, 1} {
		c := cfg
		c.Sim.Workers = w
		st, err := runSim(ctx, b.tr, root, "speedup", c)
		if err != nil {
			return 0, nil, err
		}
		if i == 0 {
			workers, res = st.sim.Workers(), st.res
		}
		nsPerCycle[i] = float64(st.measure.Nanoseconds()) / float64(max(st.measureCycles, 1))
		if hashes[i], err = st.sim.StateHash(); err != nil {
			return 0, nil, err
		}
		digests[i] = digest(st.res)
	}
	var mismatch error
	if hashes[0] != hashes[1] || digests[0] != digests[1] {
		mismatch = fmt.Errorf("%d-worker and 1-worker runs differ: StateHash %x vs %x, digest %s vs %s",
			workers, hashes[0], hashes[1], digests[0], digests[1])
	}
	b.tally.op(mismatch)
	b.note("state check: default (%d workers) and 1-worker StateHash %x agree=%v", workers, hashes[0], mismatch == nil)
	return nsPerCycle[1] / nsPerCycle[0], res, nil
}

// isolatedProbes times single-layer calls at the workload's shape.
func (b *bench) isolatedProbes(cfg orion.Config) (map[string]float64, map[string]float64, error) {
	sh := shapeOf(cfg)
	m := map[string]float64{"sim.publish_ns": publishNs()}
	pw, err := powerNs(sh, b.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("power probe: %w", err)
	}
	for op, v := range pw {
		m["power."+op+"_ns"] = v
	}
	vc := router.Config{Kind: router.VirtualChannel, Ports: 5, VCs: max(sh.vcs, 2), BufferDepth: sh.depth, FlitBits: sh.flitBits}
	wh := router.Config{Kind: router.Wormhole, Ports: 5, VCs: 1, BufferDepth: 64, FlitBits: sh.flitBits}
	cb := router.Config{Kind: router.CentralBuffered, Ports: 5, VCs: 1, BufferDepth: 64, FlitBits: 32,
		CBBanks: 4, CBRows: 2560, CBReadPorts: 2, CBWritePorts: 2}
	for name, rc := range map[string]router.Config{"wh": wh, "vc": vc, "cb": cb} {
		if m["router.tick_ns."+name], err = routerTickNs(rc); err != nil {
			return nil, nil, fmt.Errorf("router %s probe: %w", name, err)
		}
	}
	if m["traffic.tick_ns_per_node"], err = trafficTickNs(sh, b.seed); err != nil {
		return nil, nil, fmt.Errorf("traffic probe: %w", err)
	}
	if m["power.model_build_ms"], err = modelBuildMs(cfg); err != nil {
		return nil, nil, fmt.Errorf("power model probe: %w", err)
	}
	return m, pw, nil
}
