package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"orion"
	"orion/internal/remote"
	"orion/internal/serve"
)

// Request kinds of the serve-mix script.
const (
	kindCold  = "cold"  // a run nobody asked for before
	kindDup   = "dup"   // nproc identical cold runs at once: singleflight
	kindHit   = "hit"   // a repeat of a cold run: answered from the cache
	kindSweep = "sweep" // points dispatched through remote to the backend
)

type serveReq struct {
	kind  string
	key   string // checker key; sweeps add "/<rate>" per point
	cfg   orion.Config
	rates []float64
	body  []byte
}

// script is one round of serve-mix requests. Every round replays the same
// script against fresh servers with empty caches.
type script struct {
	build []serveReq // cold runs, duplicate groups and sweeps
	hits  []serveReq // repeats of the cold runs
}

// serveCounts sizes a script.
type serveCounts struct{ cold, dupGroups, sweeps, sweepRates, hits int }

var (
	mixCounts   = serveCounts{cold: 8, dupGroups: 2, sweeps: 2, sweepRates: 4, hits: 600}
	probeCounts = serveCounts{cold: 2, dupGroups: 1, sweeps: 1, sweepRates: 2, hits: 100}
)

// smallConfig is a served simulation: the paper's 4×4 torus with a short
// measurement, so a cold request costs tens of milliseconds.
func smallConfig(r orion.RouterConfig, seed int64, samples int) orion.Config {
	cfg := benchConfig(orion.OnChip4x4(r, 0), seed)
	cfg.Sim.WarmupCycles = 200
	cfg.Sim.SamplePackets = samples
	return cfg
}

// newScript generates a script from the seed. Its composition and order
// are fixed, so every seed asks for the same amount of work; the seed
// sets the traffic of every simulation. The first n of each kind are the
// same for any counts, so the probe script is a prefix of the workload's
// and shares its golden digests.
func newScript(seed int64, n serveCounts) (*script, error) {
	routers := []orion.RouterConfig{orion.VC16(), orion.VC64(), orion.WH64()}
	mk := func(kind, key string, cfg orion.Config, rates []float64) (serveReq, error) {
		cj, err := orion.ConfigJSON(cfg)
		if err != nil {
			return serveReq{}, err
		}
		body, err := json.Marshal(&serve.Request{Config: cj, Rates: rates})
		return serveReq{kind: kind, key: key, cfg: cfg, rates: rates, body: body}, err
	}
	var cold, dups, sweeps []serveReq
	for i := 0; i < n.cold; i++ {
		cfg := smallConfig(routers[i%len(routers)], seed*1000+int64(i), 1000)
		cfg.Traffic.Rate = float64(3+i%8) / 100
		r, err := mk(kindCold, fmt.Sprintf("serve/cold/%d", i), cfg, nil)
		if err != nil {
			return nil, err
		}
		cold = append(cold, r)
	}
	for g := 0; g < n.dupGroups; g++ {
		cfg := smallConfig(orion.VC16(), seed*1000+100+int64(g), 1000)
		cfg.Traffic.Rate = 0.05
		r, err := mk(kindDup, fmt.Sprintf("serve/dup/%d", g), cfg, nil)
		if err != nil {
			return nil, err
		}
		dups = append(dups, r)
	}
	for s := 0; s < n.sweeps; s++ {
		cfg := smallConfig(orion.VC16(), seed*1000+200+int64(s), 500)
		rates := []float64{0.02, 0.04, 0.06, 0.08}[:n.sweepRates]
		r, err := mk(kindSweep, fmt.Sprintf("serve/sweep/%d", s), cfg, rates)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, r)
	}
	// Cold runs, then the duplicate groups, then the sweeps: each kind
	// meets the same contention for every seed.
	sc := &script{build: append([]serveReq(nil), cold...)}
	for _, d := range dups {
		for c := 0; c < runtime.GOMAXPROCS(0); c++ {
			sc.build = append(sc.build, d)
		}
	}
	sc.build = append(sc.build, sweeps...)
	for h := 0; h < n.hits; h++ {
		r := cold[h%len(cold)]
		r.kind = kindHit
		sc.hits = append(sc.hits, r)
	}
	return sc, nil
}

// references runs every scripted simulation in process and checks it; the
// served answers must match these digests.
func (b *bench) references(ctx context.Context, tr *tracer, sc *script) (map[string]string, error) {
	want := make(map[string]string)
	run := func(key string, cfg orion.Config) error {
		if _, ok := want[key]; ok {
			return nil
		}
		st, err := runSim(ctx, tr, 0, key, cfg)
		if err := b.settle(key, st.res, err); err != nil {
			return err
		}
		b.recordLayer(tr, st)
		if !b.probing {
			b.acc.mu.Lock()
			b.acc.setups = append(b.acc.setups, st.build.Seconds())
			b.acc.mu.Unlock()
		}
		want[key] = digest(st.res)
		return nil
	}
	for _, r := range sc.build {
		if r.kind != kindSweep {
			if err := run(r.key, r.cfg); err != nil {
				return nil, err
			}
			continue
		}
		for _, rate := range r.rates {
			if err := run(fmt.Sprintf("%s/%.2f", r.key, rate), pointConfig(r.cfg, rate)); err != nil {
				return nil, err
			}
		}
	}
	return want, nil
}

// Headers that carry a span across HTTP hops in traced rounds.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

type spanCtxKey struct{}

type spanRef struct {
	id  int
	req string
}

// tracingTransport forwards the dispatching span to the backend.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanCtxKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrSpan, strconv.Itoa(ref.id))
		r.Header.Set(hdrReq, ref.req)
	}
	return t.base.RoundTrip(r)
}

// spanHandler records a span around a server's HTTP handler, parented to
// the span named in the request headers. onSpan sees the caller's and the
// new span's IDs.
func spanHandler(tr *tracer, name string, next http.Handler, onSpan func(parent, id int)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
		id := tr.start(name, parent, r.Header.Get(hdrReq))
		if onSpan != nil {
			onSpan(parent, id)
		}
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// stack is a front server whose sweeps dispatch through a remote pool to a
// backend server, both on loopback HTTP.
type stack struct {
	tr                    *tracer
	front, back           *serve.Server
	pool                  *remote.Pool
	frontHTTP, backHTTP   *http.Server
	served                sync.WaitGroup
	frontURL              string
	client                *http.Client
	sweepSpans, frontSpan sync.Map // sweep seed → spanRef; client span → front span
}

func listen(h http.Handler, st *stack) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

func startStack(dir string, tr *tracer) (*stack, error) {
	nproc := runtime.GOMAXPROCS(0)
	st := &stack{tr: tr}
	opts := serve.Options{Workers: nproc, QueueDepth: 4 * nproc}
	opts.CacheDir = filepath.Join(dir, "back")
	back, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	st.back = back
	var bh http.Handler = back.Handler()
	if tr != nil {
		bh = spanHandler(tr, "serve.backend", bh, nil)
	}
	var backURL string
	if st.backHTTP, backURL, err = listen(bh, st); err != nil {
		st.close()
		return nil, err
	}
	popts := remote.Options{Backends: []string{backURL}}
	if tr != nil {
		// The pool's default transport settings, wrapped to carry spans.
		popts.Client = &http.Client{Transport: tracingTransport{&http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			MaxIdleConns:        4 * remote.MaxBackends,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		}}}
	}
	if st.pool, err = remote.NewPool(popts); err != nil {
		st.close()
		return nil, err
	}
	opts.CacheDir = filepath.Join(dir, "front")
	opts.RunPoint = st.pool.RunPoint
	if tr != nil {
		opts.RunPoint = st.tracedPoint
	}
	if st.front, err = serve.New(opts); err != nil {
		st.close()
		return nil, err
	}
	var fh http.Handler = st.front.Handler()
	if tr != nil {
		fh = spanHandler(tr, "serve.front", fh, func(parent, id int) { st.frontSpan.Store(parent, id) })
	}
	if st.frontHTTP, st.frontURL, err = listen(fh, st); err != nil {
		st.close()
		return nil, err
	}
	st.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	return st, nil
}

// tracedPoint is the front server's point runner in traced rounds: a span
// for the sweep point and one for its remote dispatch, parented to the
// front handler span of the sweep request the point belongs to.
func (st *stack) tracedPoint(ctx context.Context, cfg orion.Config, rate float64) (*orion.Result, error) {
	var parent spanRef
	if v, ok := st.sweepSpans.Load(cfg.Traffic.Seed); ok {
		parent = v.(spanRef)
		if f, ok := st.frontSpan.Load(parent.id); ok {
			parent.id = f.(int)
		}
	}
	p := st.tr.start("sweep.point", parent.id, parent.req)
	d := st.tr.start("remote.dispatch", p, parent.req)
	res, err := st.pool.RunPoint(context.WithValue(ctx, spanCtxKey{}, spanRef{d, parent.req}), cfg, rate)
	st.tr.end(d)
	st.tr.end(p)
	return res, err
}

// close drains both servers and closes their listeners and connections.
// It runs after every request was answered, so nothing is cut off; Close
// rather than Shutdown because a connection the clients dialled but never
// used would hold Shutdown for seconds.
func (st *stack) close() {
	for _, s := range []*serve.Server{st.front, st.back} {
		if s != nil {
			_ = s.Drain() // only reports an index flush failure on a cache about to be deleted
		}
	}
	for _, s := range []*http.Server{st.frontHTTP, st.backHTTP} {
		if s != nil {
			_ = s.Close() // closing an idle server has nothing to report
		}
	}
	st.served.Wait()
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
}

// do sends one request and returns the decoded response and its latency.
func (st *stack) do(ctx context.Context, r serveReq, req string) (*serve.Response, time.Duration, error) {
	path := "/v1/run"
	if r.kind == kindSweep {
		path = "/v1/sweep"
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, st.frontURL+path, bytes.NewReader(r.body))
	if err != nil {
		return nil, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	id := st.tr.start("serve.request", 0, req)
	if st.tr != nil {
		hr.Header.Set(hdrSpan, strconv.Itoa(id))
		hr.Header.Set(hdrReq, req)
		if r.kind == kindSweep {
			st.sweepSpans.Store(r.cfg.Traffic.Seed, spanRef{id, req})
		}
	}
	t0 := time.Now()
	resp, err := st.client.Do(hr)
	if err != nil {
		st.tr.end(id)
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	st.tr.end(id)
	if err != nil {
		return nil, lat, err
	}
	var out serve.Response
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, lat, fmt.Errorf("HTTP %d: decoding response: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || !out.OK {
		return &out, lat, fmt.Errorf("HTTP %d: code %q: %s", resp.StatusCode, out.Code, out.Error)
	}
	return &out, lat, nil
}

// drive sends reqs from nproc closed-loop clients: each client sends its
// next request only after the previous answer arrived.
func (st *stack) drive(ctx context.Context, reqs []serveReq, round int, settle func(r serveReq, resp *serve.Response, lat time.Duration, err error)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				resp, lat, err := st.do(ctx, reqs[i], fmt.Sprintf("r%d-%d", round, i))
				settle(reqs[i], resp, lat, err)
			}
		}()
	}
	wg.Wait()
}

// serveAcc gathers serve-mix samples.
type serveAcc struct {
	mu                     sync.Mutex
	hitMs, coldMs, sweepMs []float64
	uncachedHits           int
	tracedHitMs, handleMs  []float64
	liveMB                 []float64
	stackMs                []float64 // standing up the two servers and the pool
	rounds                 int
	hits, misses, shed     float64
	retries, fallbacks     float64
}

// verify checks a served answer against the in-process digests.
func verify(r serveReq, resp *serve.Response, want map[string]string) error {
	check := func(key string, res *orion.Result) error {
		if res == nil {
			return fmt.Errorf("%s: response carries no result", key)
		}
		if d := digest(res); d != want[key] {
			return fmt.Errorf("%s: served digest %s, in-process %s", key, d, want[key])
		}
		return nil
	}
	if r.kind != kindSweep {
		return check(r.key, resp.Result)
	}
	if len(resp.Results) != len(r.rates) {
		return fmt.Errorf("%s: %d results for %d rates", r.key, len(resp.Results), len(r.rates))
	}
	for i, rate := range r.rates {
		if err := check(fmt.Sprintf("%s/%.2f", r.key, rate), resp.Results[i]); err != nil {
			return err
		}
	}
	return nil
}

// serveRound stands up a fresh stack, replays the script against it, and
// tears it down. It returns the requests sent and the time spent sending.
func (b *bench) serveRound(ctx context.Context, tr *tracer, sc *script, want map[string]string, acc *serveAcc, round int) (int, time.Duration, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), round))
	defer os.RemoveAll(dir)
	heap0 := heapAfterGC()
	t0 := time.Now()
	st, err := startStack(dir, tr)
	if err != nil {
		return 0, 0, err
	}
	setup := time.Since(t0)
	defer st.close()

	settle := func(r serveReq, resp *serve.Response, lat time.Duration, err error) {
		if err == nil {
			err = verify(r, resp, want)
		}
		b.tally.op(err)
		if err != nil {
			return
		}
		l := ms(lat)
		acc.mu.Lock()
		defer acc.mu.Unlock()
		switch r.kind {
		case kindHit:
			switch {
			case !resp.Cached:
				acc.uncachedHits++
			case tr != nil:
				acc.tracedHitMs = append(acc.tracedHitMs, l)
			default:
				acc.hitMs = append(acc.hitMs, l)
			}
		case kindCold:
			if tr == nil {
				acc.coldMs = append(acc.coldMs, l)
				b.acc.mu.Lock()
				b.acc.nsPerEvent = append(b.acc.nsPerEvent, float64(lat.Nanoseconds())/float64(max(events(resp.Result), 1)))
				b.acc.mu.Unlock()
			}
		case kindSweep:
			if tr == nil {
				acc.sweepMs = append(acc.sweepMs, l)
			}
			b.wallSample(tr, lat.Seconds())
		}
	}
	t1 := time.Now()
	st.drive(ctx, sc.build, round, settle)
	st.drive(ctx, sc.hits, round, settle)
	busy := time.Since(t1)
	live := (float64(heapAfterGC()) - float64(heap0)) / 1e6

	if tr != nil {
		b.handleProbe(ctx, st, sc, acc)
	}
	fs, bs, ps := st.front.Stats(), st.back.Stats(), st.pool.Stats()
	acc.mu.Lock()
	if tr == nil {
		acc.liveMB = append(acc.liveMB, live)
		acc.stackMs = append(acc.stackMs, ms(setup))
	} else {
		acc.rounds++
		acc.hits += float64(fs.Cache.Hits + bs.Cache.Hits)
		acc.misses += float64(fs.Cache.Misses + bs.Cache.Misses)
		acc.shed += float64(fs.Shed + bs.Shed)
		acc.retries += float64(ps.Busy + ps.Failures)
		acc.fallbacks += float64(ps.Local)
	}
	acc.mu.Unlock()
	return len(sc.build) + len(sc.hits), busy, ctx.Err()
}

// handleProbe times Server.Handle directly on cached run requests, the
// server's work for a hit without HTTP around it.
func (b *bench) handleProbe(ctx context.Context, st *stack, sc *script, acc *serveAcc) {
	var xs []float64
	for i := 0; i < 200; i++ {
		r := sc.hits[i%len(sc.hits)]
		var req serve.Request
		if err := json.Unmarshal(r.body, &req); err != nil {
			b.tally.op(err)
			return
		}
		req.Op = serve.OpRun
		id := st.tr.start("serve.handle", 0, "handle")
		t0 := time.Now()
		resp := st.front.Handle(ctx, &req)
		d := time.Since(t0)
		st.tr.end(id)
		if !resp.OK || !resp.Cached {
			b.tally.op(fmt.Errorf("direct Handle of a cached request: ok=%v cached=%v code=%q", resp.OK, resp.Cached, resp.Code))
			return
		}
		xs = append(xs, ms(d))
	}
	acc.mu.Lock()
	acc.handleMs = append(acc.handleMs, xs...)
	acc.mu.Unlock()
}

func (b *bench) serveMix(ctx context.Context) error {
	sc, err := newScript(b.seed, mixCounts)
	if err != nil {
		return err
	}
	b.rep = sc.build[0].cfg
	want, err := b.references(ctx, b.tr, sc)
	if err != nil {
		return fmt.Errorf("in-process reference runs: %w", err)
	}
	acc := &serveAcc{}
	round := 0
	err = b.iterate(ctx, false, func(tr *tracer) (int, time.Duration, error) {
		round++
		return b.serveRound(ctx, tr, sc, want, acc, round)
	})
	if err != nil {
		return err
	}
	b.serve = acc
	b.acc.mu.Lock()
	b.acc.opLatMs = acc.hitMs
	b.acc.liveMB = median(acc.liveMB)
	b.acc.mu.Unlock()
	b.note("serve-mix: hit_p50_ms=%.4g (n=%d) cold_p50_ms=%.4g (n=%d) sweep_p50_ms=%.4g (n=%d)",
		median(acc.hitMs), len(acc.hitMs), median(acc.coldMs), len(acc.coldMs), median(acc.sweepMs), len(acc.sweepMs))
	b.note("serve-mix: server stand-up %.4g ms (n=%d rounds); setup_s is NewSim of the in-process reference runs",
		median(acc.stackMs), len(acc.stackMs))
	if p, v, ok := tail(acc.hitMs); ok {
		b.note("serve-mix: hit_p%g_ms=%.4g (n=%d; highest percentile with >=10 samples beyond)", p, v, len(acc.hitMs))
	}
	if acc.uncachedHits > 0 {
		b.note("serve-mix: %d repeat requests were not answered from the cache", acc.uncachedHits)
	}
	return nil
}
