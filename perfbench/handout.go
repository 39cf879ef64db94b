package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/distrib"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/service"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// This file is the handout workload: i2pdistribd's handler stack driven
// in-process by independent bridge users, with the reachability prober
// retiring bridges beside the reads. The daemon's defaults size it:
// scale 0.1, 45 days, pool day 10, combined strategy, 200 bridges,
// 5 requests/s per identity with a burst of 4.

const (
	handoutDays = 45
	handoutDay  = 10
	// identities is the user population and batchSize the saturation
	// unit of work. As in the daemon's own load generator
	// (service.LoadGen, behind BENCH_service.json), every request of a
	// batch comes from a distinct identity asking /handout over https.
	identities = 1 << 16
	batchSize  = identities
	// openRate is the open loop's offered rate, an eighth of the ~160K
	// requests/s the two saturation clients complete.
	openRate = 20000
	// probeEvery is the real-time period of the prober; each pass
	// advances the daemon's clock by one probe interval.
	probeEvery    = 100 * time.Millisecond
	probeInterval = 30 * time.Second
	// checkIdentities is the identity set whose bodies are digested.
	checkIdentities = 64
	// seedTimings is how many seed-bundle requests the traced run times.
	seedTimings = 1 << 13
	// traceEvery samples one request in this many into the trace.
	traceEvery = 64
)

// checkClasses are the request classes of the fixed identity set: user
// i asks class i%4, so the checks cover every moat-style frontend and the
// manual-reseed bundle ("" is /i2pseeds.su3), which the load does not.
var checkClasses = []string{"https", "email", "social", ""}

// target is one user's prepared request.
type target struct {
	req  *http.Request
	dist string // the frontend; "" for the seed bundle
	key  uint64
}

func newTarget(id, dist string) target {
	t := target{dist: dist, key: distrib.IdentityKey(id)}
	if dist == "" {
		t.req = getRequest("/i2pseeds.su3", "id="+id)
	} else {
		t.req = getRequest("/handout", "dist="+dist+"&id="+id)
	}
	return t
}

// handoutRun binds the workload to one invocation's inputs.
type handoutRun struct {
	seed    uint64
	scale   float64
	seconds time.Duration
	golden  bool
}

func (h handoutRun) inputSize() string {
	return fmt.Sprintf("%d daily peers (scale %.2f), %d days, pool day %d, %d identities on /handout?dist=https, open loop %d req/s, batch %d requests",
		int(h.scale*30500), h.scale, handoutDays, handoutDay, identities, openRate, batchSize)
}

// requests are one run's prepared requests, all drawn from the seed.
type requests struct {
	load   []target // one https handout per identity
	checks []target // the fixed identity set, one class each
	seeds  []target // seed-bundle requests for the traced timings
}

func (h handoutRun) requests() requests {
	rng := rand.New(rand.NewPCG(h.seed, 0x5eed))
	var r requests
	for i := 0; i < identities; i++ {
		id := fmt.Sprintf("user-%016x", rng.Uint64())
		r.load = append(r.load, newTarget(id, "https"))
		if i < checkIdentities {
			r.checks = append(r.checks, newTarget(id, checkClasses[i%len(checkClasses)]))
		}
		if i < seedTimings {
			r.seeds = append(r.seeds, newTarget(id, ""))
		}
	}
	return r
}

func getRequest(path, query string) *http.Request {
	return &http.Request{
		Method:     http.MethodGet,
		URL:        &url.URL{Path: path, RawQuery: query},
		Header:     http.Header{},
		RemoteAddr: "192.0.2.1:9999",
	}
}

// fakeClock is the daemon's clock: the prober advances it one probe
// interval per pass, so backoff and retirement follow pass counts.
type fakeClock struct{ off atomic.Int64 }

func (c *fakeClock) now() time.Time { return sim.StudyStart.Add(time.Duration(c.off.Load())) }

// dyingProbe fails a growing share of the moat-style bridges: on pass p
// a bridge fails when its seeded hash falls below p per mille, up to
// 40%, so retirements keep coming for the first 40 s of serving.
// Manual-reseed bridges never fail, so every seed bundle keeps its
// records and no request is refused.
type dyingProbe struct {
	seed      uint64
	pass      atomic.Int64
	protected map[int]bool
}

func (d *dyingProbe) probe(r distrib.Resource) error {
	if d.protected[r.Peer] {
		return nil
	}
	share := d.pass.Load()
	if share > 400 {
		share = 400
	}
	x := (uint64(r.Peer)+1)*0x9e3779b97f4a7c15 ^ d.seed
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	if int64(x%1000) < share {
		return fmt.Errorf("bridge %d unreachable", r.Peer)
	}
	return nil
}

// daemon is one built service with its clock and prober state.
type daemon struct {
	svc     *service.Service
	handler http.Handler
	clock   *fakeClock
	probe   *dyingProbe
}

// daemonTimes are the two steps of the daemon's set-up.
type daemonTimes struct{ sim, svc time.Duration }

func (t daemonTimes) total() float64 { return (t.sim + t.svc).Seconds() }

// newDaemon builds the network and the service.
func (h handoutRun) newDaemon(reg *obs.Registry) (*daemon, daemonTimes, error) {
	var times daemonTimes
	t0 := time.Now()
	network, err := sim.New(sim.Config{Seed: h.seed, Days: handoutDays, TargetDailyPeers: int(h.scale * 30500)})
	if err != nil {
		return nil, times, err
	}
	times.sim = time.Since(t0)
	d := &daemon{clock: &fakeClock{}, probe: &dyingProbe{seed: h.seed, protected: map[int]bool{}}}
	t1 := time.Now()
	d.svc, err = service.NewService(network, service.Config{
		Day:           handoutDay,
		Strategy:      censor.BridgeCombined,
		MaxResources:  200,
		Seed:          h.seed,
		RatePerSec:    5,
		Burst:         4,
		ProbeInterval: probeInterval,
		FailLimit:     3,
		Probe:         d.probe.probe,
		Now:           d.clock.now,
		Registry:      reg,
	})
	if err != nil {
		return nil, times, err
	}
	times.svc = time.Since(t1)
	d.handler = d.svc.Handler()
	if part := d.svc.Backend().Partition("manual-reseed"); part != nil {
		for _, r := range part.Resources() {
			d.probe.protected[r.Peer] = true
		}
	}
	return d, times, nil
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	header  http.Header
	code    int
	capture bool
	body    bytes.Buffer
}

func (w *recorder) reset(capture bool) {
	if w.header == nil {
		w.header = http.Header{}
	}
	clear(w.header)
	w.code, w.capture = 0, capture
	w.body.Reset()
}

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.capture {
		w.body.Write(p)
	}
	return len(p), nil
}

// counts tallies one phase's responses.
type counts struct {
	requests, failed, denied int
}

func (c *counts) add(o counts) {
	c.requests += o.requests
	c.failed += o.failed
	c.denied += o.denied
}

func (c *counts) observe(code int) {
	c.requests++
	if code != http.StatusOK {
		c.failed++
		if code == http.StatusForbidden || code == http.StatusTooManyRequests {
			c.denied++
		}
	}
}

// client serves targets in order on one goroutine, optionally recording
// a sampled request's handler and Serve spans.
type client struct {
	d   *daemon
	w   recorder
	sp  *spans
	tid int
	n   int
	c   counts
}

func (cl *client) do(t *target) {
	cl.n++
	var root *span
	if cl.sp != nil && cl.n%traceEvery == 0 {
		root = cl.sp.open("request", 0, cl.tid)
	}
	hs := cl.sp.openIf(root, "handler", cl.tid)
	cl.w.reset(false)
	cl.d.handler.ServeHTTP(&cl.w, t.req)
	cl.sp.end(hs)
	cl.c.observe(cl.w.code)
	if root != nil && t.dist != "" {
		// The handler's own HandoutAPI.Serve call cannot be seen from
		// outside the program; replay it with the same key under the
		// same request id.
		ss := cl.sp.openIf(root, "serve", cl.tid)
		_, _ = cl.d.svc.HandoutAPI().Serve(distrib.Request{Dist: t.dist, ID: t.key, Day: handoutDay})
		cl.sp.end(ss)
	}
	cl.sp.end(root)
}

// prober runs ProbeOnce every probeEvery until stopped. Its results are
// read only after close, which waits for the goroutine.
type prober struct {
	stop, done  chan struct{}
	retireMS    []float64
	retirements int
}

func startProber(ctx context.Context, d *daemon) *prober {
	p := &prober{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			d.probe.pass.Add(1)
			d.clock.off.Add(int64(probeInterval))
			before := d.svc.RetiredCount()
			t0 := time.Now()
			d.svc.ProbeOnce(ctx)
			took := time.Since(t0)
			if n := d.svc.RetiredCount() - before; n > 0 {
				p.retireMS = append(p.retireMS, float64(took)/float64(time.Millisecond))
				p.retirements += n
			}
		}
	}()
	return p
}

// close stops the prober and waits for its goroutine to exit.
func (p *prober) close() {
	close(p.stop)
	<-p.done
}

// phases is the outcome of one open-loop plus saturation run.
type phases struct {
	ol          openLoop
	batchWall   []float64
	batchCPU    []float64
	c           counts
	retireMS    []float64
	retirements int
}

// runPhases drives the open loop for a third of the time and saturation
// batches for the rest, with the prober running throughout. The open
// loop issues each identity at most once per probe period at its fixed
// rate, and a batch asks each identity once after a refill, so no
// request meets an empty token bucket at any handler speed.
func (h handoutRun) runPhases(ctx context.Context, d *daemon, targets []target, dur time.Duration, sp *spans) phases {
	d.refill()
	pr := startProber(ctx, d)
	var ph phases

	// Open loop: one generator, request i due at i/openRate.
	ph.ol = openLoop{interval: time.Second / openRate}
	gen := &client{d: d, sp: sp, tid: 1}
	openDur := dur / 3
	start := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		due := ph.ol.due(i)
		if due >= openDur {
			break
		}
		for time.Since(start) < due {
			// Spin: sleeping cannot wake within the 50us between requests.
		}
		began := time.Since(start)
		gen.do(&targets[i%len(targets)])
		ph.ol.record(i, began, time.Since(start))
	}
	ph.c.add(gen.c)

	// Saturation: two closed-loop clients, each on its half of the users.
	clients := [workers]*client{}
	next := [workers]int{}
	for i := range clients {
		clients[i] = &client{d: d, sp: sp, tid: 2 + i}
		next[i] = i
	}
	start = time.Now()
	for ctx.Err() == nil && (len(ph.batchWall) < minPasses || time.Since(start)+time.Duration(median(ph.batchWall)*float64(time.Second)) <= dur-openDur) {
		d.refill()
		u0, t0 := readUsage(), time.Now()
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cl, j := clients[i], next[i]
				for n := 0; n < batchSize/workers; n++ {
					cl.do(&targets[j])
					j = (j + workers) % len(targets)
				}
				next[i] = j
			}(i)
		}
		wg.Wait()
		ph.batchWall = append(ph.batchWall, time.Since(t0).Seconds())
		ph.batchCPU = append(ph.batchCPU, (readUsage().cpu - u0.cpu).Seconds())
	}
	for _, cl := range clients {
		ph.c.add(cl.c)
	}
	pr.close()
	ph.retireMS, ph.retirements = pr.retireMS, pr.retirements
	return ph
}

// snapshot is the check pass's view of the fixed identity set.
type snapshot struct {
	bodies [][]byte
	digest string
}

// refill advances the daemon's clock by one probe interval, which fills
// every identity's token bucket, so whether a request is admitted cannot
// depend on how fast the requests before it were served.
func (d *daemon) refill() { d.clock.off.Add(int64(probeInterval)) }

// checkPass requests each user of the fixed identity set twice, with
// the prober stopped. It counts a failure for a non-200 response or a
// re-request whose body differs, and, when before is non-nil, for a
// handout naming a retired bridge or one that is not a subsequence of
// the user's earlier handout (retirement filters, it never reshuffles).
func (h handoutRun) checkPass(d *daemon, checks []target, before *snapshot) (snapshot, counts) {
	var (
		snap snapshot
		c    counts
		w    recorder
	)
	d.refill()
	sum := sha256.New()
	for i := range checks {
		t := &checks[i]
		var bodies [2][]byte
		for k := range bodies {
			w.reset(true)
			d.handler.ServeHTTP(&w, t.req)
			c.observe(w.code)
			bodies[k] = append([]byte(nil), w.body.Bytes()...)
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			fmt.Fprintf(os.Stderr, "handout: user %d: re-request body differs\n", i)
			c.failed++
		}
		snap.bodies = append(snap.bodies, bodies[0])
		sum.Write(bodies[0])
		if before != nil && t.dist != "" {
			if msg := filtered(d.svc.Retired, before.bodies[i], bodies[0]); msg != "" {
				fmt.Fprintf(os.Stderr, "handout: user %d: %s\n", i, msg)
				c.failed++
			}
		}
	}
	snap.digest = hex.EncodeToString(sum.Sum(nil))[:16]
	return snap, c
}

// filtered checks that a later handout body is the earlier one with
// retired bridges removed.
func filtered(retired func(peer int) bool, earlier, later []byte) string {
	var a, b service.HandoutJSON
	if err := json.Unmarshal(earlier, &a); err != nil {
		return "earlier body: " + err.Error()
	}
	if err := json.Unmarshal(later, &b); err != nil {
		return "later body: " + err.Error()
	}
	j := 0
	for _, br := range b.Bridges {
		if retired(br.Peer) {
			return fmt.Sprintf("serves retired bridge %d", br.Peer)
		}
		for j < len(a.Bridges) && a.Bridges[j] != br {
			j++
		}
		if j == len(a.Bridges) {
			return fmt.Sprintf("bridge %d is not in the earlier handout, in order", br.Peer)
		}
		j++
	}
	return ""
}

// setups times the daemon's set-up in n fresh child processes and then
// builds this process's daemon, its first, as an (n+1)th sample.
func (h handoutRun) setups(ctx context.Context, n int, reg *obs.Registry) (*daemon, []daemonTimes, error) {
	rs, err := setupSamples(ctx, n, "handout", h.seed, h.scale)
	if err != nil {
		return nil, nil, err
	}
	var times []daemonTimes
	for _, r := range rs {
		times = append(times, daemonTimes{
			sim: time.Duration(r.SimNew * float64(time.Second)),
			svc: time.Duration(r.SvcNew * float64(time.Second)),
		})
	}
	d, t, err := h.newDaemon(reg)
	return d, append(times, t), err
}

// timed builds the daemon, checks the fixed identity set, runs both
// phases and checks again.
func (h handoutRun) timed(ctx context.Context) (values, int, int, handoutSummary, error) {
	d, times, err := h.setups(ctx, setupChildren, nil)
	if err != nil {
		return nil, 0, 0, handoutSummary{}, err
	}
	var setups []float64
	for _, t := range times {
		setups = append(setups, t.total())
	}
	reqs := h.requests()
	var c counts
	before, bc := h.checkPass(d, reqs.checks, nil)
	c.add(bc)
	if h.golden && before.digest != goldenDigests["handout"]["bodies"] {
		fmt.Fprintf(os.Stderr, "handout: body digest %s, recorded %s\n", before.digest, goldenDigests["handout"]["bodies"])
		c.failed++
	}
	runtime.GC()
	ph := h.runPhases(ctx, d, reqs.load, h.seconds, nil)
	c.add(ph.c)
	_, ac := h.checkPass(d, reqs.checks, &before)
	c.add(ac)

	p50, _, _, _, _ := ph.ol.summary()
	sum := handoutSummary{p50us: p50, rps: batchSize / median(ph.batchWall)}
	return values{
		"setup_s":     median(setups),
		"wall_s":      median(ph.batchWall),
		"cpu_s":       median(ph.batchCPU),
		"peak_rss_mb": peakRSSMB(),
	}, c.requests, c.failed, sum, nil
}

// handoutSummary carries the daemon's user-facing figures, printed
// beside the end-to-end metrics.
type handoutSummary struct{ p50us, rps float64 }

// traced runs the phases untraced and then traced on one daemon, times
// the handler, Serve and the bundle path alone, and writes the trace.
func (h handoutRun) traced(ctx context.Context, tracePath string) (values, int, int, error) {
	v := values{}
	sp := newSpans()
	reg := obs.NewRegistry()
	d, times, err := h.setups(ctx, minPasses-1, reg)
	if err != nil {
		return nil, 0, 0, err
	}
	var simNews, svcNews []float64
	for _, t := range times {
		simNews = append(simNews, t.sim.Seconds())
		svcNews = append(svcNews, t.svc.Seconds())
	}
	v["sim.new_s"] = median(simNews)
	v["service.new_s"] = median(svcNews)

	reqs := h.requests()
	var c counts
	before, bc := h.checkPass(d, reqs.checks, nil)
	c.add(bc)

	runtime.GC()
	untraced := h.runPhases(ctx, d, reqs.load, h.seconds/2, nil)
	c.add(untraced.c)
	p50, p99, tailPct, tail, n := untraced.ol.summary()
	v["loadgen.p50_us"] = p50
	v["loadgen.p99_us"] = p99
	v["loadgen.tail_pct"] = tailPct
	v["loadgen.tail_us"] = tail
	v["loadgen.samples"] = float64(n)
	v["loadgen.late_max_us"] = float64(untraced.ol.lateMax) / float64(time.Microsecond)
	v["loadgen.rps"] = batchSize / median(untraced.batchWall)

	runtime.GC()
	var engine bytes.Buffer
	obs.Enable(reg)
	engineOffset := time.Since(sp.epoch)
	tr := obs.NewTracer(&engine)
	obs.EnableTrace(tr)
	r0 := readRuntime()
	pass := sp.open("pass", 0, 0)
	traced := h.runPhases(ctx, d, reqs.load, h.seconds/2, sp)
	sp.end(pass)
	r1 := readRuntime()
	obs.EnableTrace(nil)
	obs.Enable(nil)
	if err := tr.Close(); err != nil {
		return nil, 0, 0, err
	}
	c.add(traced.c)
	runtimeDelta(r0, r1, v)
	if err := registryMetrics(reg, v); err != nil {
		return nil, 0, 0, err
	}
	v["trace.overhead_s"] = median(traced.batchWall) - median(untraced.batchWall)
	v["service.denied"] = float64(untraced.c.denied + traced.c.denied)
	v["service.retirements"] = float64(untraced.retirements + traced.retirements)
	v["service.retire_ms"] = median(append(untraced.retireMS, traced.retireMS...))

	// Layer timings, one call at a time with nothing else running.
	var w recorder
	serveHTTP := func(t *target) error {
		w.reset(false)
		d.handler.ServeHTTP(&w, t.req)
		if w.code != http.StatusOK {
			return fmt.Errorf("%s: status %d", t.req.URL, w.code)
		}
		return nil
	}
	serve := func(t *target) error {
		_, err := d.svc.HandoutAPI().Serve(distrib.Request{Dist: t.dist, ID: t.key, Day: handoutDay})
		return err
	}
	for _, l := range []struct {
		span, p50, allocs string
		targets           []target
		fn                func(*target) error
	}{
		{"handler.handout", "service.handout_p50_us", "service.handout_allocs", reqs.load, serveHTTP},
		{"handler.seeds", "service.seeds_p50_us", "service.seeds_allocs", reqs.seeds, serveHTTP},
		{"serve", "distrib.serve_p50_us", "distrib.serve_allocs", reqs.load, serve},
	} {
		d.refill()
		s := sp.open(l.span, 0, 0)
		p50, perCall, err := timeEach(l.targets, l.fn)
		sp.end(s)
		if err != nil {
			return nil, 0, 0, err
		}
		v[l.p50], v[l.allocs] = p50, perCall
		c.requests += len(l.targets)
	}

	_, ac := h.checkPass(d, reqs.checks, &before)
	c.add(ac)
	v["trace.spans"] = float64(sp.count())
	return v, c.requests, c.failed, sp.write(tracePath, engine.Bytes(), engineOffset)
}

// timeEach calls fn on every target, timing each call, and returns the
// median in microseconds and the heap allocations per call.
func timeEach(targets []target, fn func(*target) error) (p50us, allocsPerCall float64, err error) {
	lat := make([]float64, len(targets))
	a0 := allocs()
	for i := range targets {
		t0 := time.Now()
		if err := fn(&targets[i]); err != nil {
			return 0, 0, err
		}
		lat[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	a1 := allocs()
	sort.Float64s(lat)
	return percentile(lat, 50), float64(a1-a0) / float64(len(targets)), nil
}
