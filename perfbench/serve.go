package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"breathe/internal/api"
	"breathe/internal/service"
	"breathe/internal/telemetry"
)

// The serve-mix traffic is built from breathed's two in-repo callers at
// their default settings, both under the keyed schedule:
//
//   - cmd/sweep: broadcast × n {1024, 4096} × ε {0.2, 0.3}, crash 0, five
//     seeds per cell (base .. base+4), cells in grid order. A sweep's 20
//     requests are distinct, so a sweep never hits the cache; every sweep
//     in the stream gets a fresh base seed.
//   - cmd/loadgen: broadcast, n = 4096, ε = 0.3 (the api default), hit
//     ratio 0.5: half of its requests repeat an earlier one.
//
// The stream alternates one sweep and one loadgen batch of the same
// length, so each caller sends half the requests: the repository records
// no relative volume of the two, and equal shares are the plainest choice.
// loadgen sends a run and its repeat from two clients at once, so whether
// the repeat joins the run in flight or hits the cache depends on timing;
// here a repeat follows its original by repeatMinGap or more requests,
// so the schedule alone decides every hit.
const (
	protoServe = api.ProtoBroadcast
	sweepSeeds = 5 // sweep -seeds
	loadgenN   = 4096
	loadgenEps = 0.3
	// batch is the length of a sweep (2 sizes × 2 noise levels × 5 seeds)
	// and of a loadgen batch; a block is one of each.
	batch = 20
	block = 2 * batch
	// repeatLag: a loadgen batch repeats fresh requests of the loadgen
	// batch repeatLag blocks earlier, so a repeat follows its original by
	// 101 to 139 requests. With at most nproc requests in flight that is
	// ample for the original to have completed, and it stays far below the
	// service's cache capacity (1024 entries, at most one per request), so
	// the result is still cached.
	repeatLag    = 3
	repeatMinGap = (repeatLag-1)*block + batch + 1
	// streamServe is the workload seed's stream for the request sequence.
	streamServe = 3
)

var (
	sweepNs   = []int{1024, 4096}
	sweepEpss = []float64{0.2, 0.3}
)

// serveCell is one request configuration of serve-mix. The service keys
// engines by size and noise, so the 4 cells are 4 engine shapes.
type serveCell struct {
	n   int
	eps float64
}

// serveCells returns sweep's grid in its order; loadgen's configuration
// is one of its cells.
func serveCells() []serveCell {
	var cells []serveCell
	for _, n := range sweepNs {
		for _, eps := range sweepEpss {
			cells = append(cells, serveCell{n, eps})
		}
	}
	return cells
}

func (c serveCell) request(seed uint64) api.RunRequest {
	return api.RunRequest{Protocol: protoServe, N: c.n, Eps: c.eps, Seed: seed, Schedule: api.ScheduleKeyed}
}

// serveItem is one scheduled request. origin is the index of the request
// whose result it repeats, or its own index when it is fresh.
type serveItem struct {
	req    api.RunRequest
	origin int
}

func (it serveItem) repeat(i int) bool { return it.origin != i }

// schedule is the serve-mix request sequence: a pure function of the
// seed, generated lazily block by block so its length need not be known.
type schedule struct {
	r     *rand.Rand
	items []serveItem
	seeds map[uint64]bool
	fresh [][]int // by block, the indices of its fresh loadgen requests
}

func newSchedule(seed uint64) *schedule {
	return &schedule{r: newRand(seed, streamServe), seeds: map[uint64]bool{}}
}

// at returns request i. Not safe for concurrent use.
func (s *schedule) at(i int) serveItem {
	for len(s.items) <= i {
		s.genBlock()
	}
	return s.items[i]
}

// genBlock appends one sweep and one loadgen batch. A loadgen batch holds
// batch/2 repeats at positions drawn from the seed; in the first
// repeatLag blocks, which have nothing to repeat yet, those are fresh too.
func (s *schedule) genBlock() {
	b := len(s.fresh)
	base := s.newSeed(sweepSeeds)
	for _, c := range serveCells() {
		for k := uint64(0); k < sweepSeeds; k++ {
			s.items = append(s.items, serveItem{req: c.request(base + k), origin: len(s.items)})
		}
	}
	var src []int
	if b >= repeatLag {
		src = s.fresh[b-repeatLag]
		perm := s.r.Perm(len(src))[:batch/2]
		shuffled := make([]int, len(perm))
		for k, p := range perm {
			shuffled[k] = src[p]
		}
		src = shuffled
	}
	repeatAt := map[int]bool{}
	if src != nil {
		for _, k := range s.r.Perm(batch)[:batch/2] {
			repeatAt[k] = true
		}
	}
	lg := serveCell{loadgenN, loadgenEps}
	var fresh []int
	for k := 0; k < batch; k++ {
		i := len(s.items)
		if repeatAt[k] {
			j := src[0]
			src = src[1:]
			s.items = append(s.items, serveItem{req: s.items[j].req, origin: j})
			continue
		}
		s.items = append(s.items, serveItem{req: lg.request(s.newSeed(1)), origin: i})
		fresh = append(fresh, i)
	}
	s.fresh = append(s.fresh, fresh)
}

// newSeed returns the first of k consecutive seeds no earlier request of
// s used, so only scheduled repeats can hit the cache.
func (s *schedule) newSeed(k uint64) uint64 {
	for {
		seed := s.r.Uint64()
		if seed > ^uint64(0)-k {
			continue
		}
		used := false
		for j := uint64(0); j < k; j++ {
			used = used || s.seeds[seed+j]
		}
		if used {
			continue
		}
		for j := uint64(0); j < k; j++ {
			s.seeds[seed+j] = true
		}
		return seed
	}
}

// handlerTimer is the traced run's middleware around the service handler:
// it times the POST and GET handlers from outside.
type handlerTimer struct {
	next                 http.Handler
	postNs, posts, getNs atomic.Int64
}

func (m *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	m.next.ServeHTTP(w, r)
	d := int64(time.Since(t0))
	if r.Method == http.MethodPost {
		m.postNs.Add(d)
		m.posts.Add(1)
	} else {
		m.getNs.Add(d)
	}
}

// serveEnv is one running service with its listener and client.
type serveEnv struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	timer  *handlerTimer // nil in untraced runs
}

func startServe(traced bool) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	// JobHistory matches the cache capacity (breathed -history 1024): with
	// the default 16384 the retained jobs grow through a whole run, and
	// peak RSS would rise with throughput instead of showing the service's
	// steady state.
	svc := service.New(service.Config{Workers: runtime.NumCPU(), JobHistory: 1024})
	e := &serveEnv{
		svc:    svc,
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}},
	}
	var h http.Handler = service.NewHTTPHandler(svc)
	if traced {
		e.timer = &handlerTimer{next: h}
		h = e.timer
	}
	e.srv = &http.Server{Handler: h}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// close stops the listener, waits for the server and the service's
// workers, and drops the client's idle connections.
func (e *serveEnv) close() error {
	err := e.srv.Close()
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	e.svc.Close()
	return err
}

// serveOp is the outcome of one request.
type serveOp struct {
	ms   float64
	hit  bool
	raw  []byte // the /result bytes
	resp api.RunResponse
}

// do submits req and waits for its result bytes.
func (e *serveEnv) do(req api.RunRequest) (serveOp, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serveOp{}, err
	}
	t0 := time.Now()
	r, err := e.client.Post(e.url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serveOp{}, err
	}
	var st service.JobStatus
	err = json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if err != nil {
		return serveOp{}, fmt.Errorf("submit: %d: %w", r.StatusCode, err)
	}
	if r.StatusCode/100 != 2 {
		return serveOp{}, fmt.Errorf("submit: status %d: %s", r.StatusCode, st.Error)
	}
	hit := r.Header.Get("X-Breathe-Cache") == "hit"
	r, err = e.client.Get(e.url + "/v1/runs/" + st.ID + "/result?wait=1")
	if err != nil {
		return serveOp{}, err
	}
	raw, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return serveOp{}, fmt.Errorf("result: %w", err)
	}
	if r.StatusCode/100 != 2 {
		return serveOp{}, fmt.Errorf("result: status %d: %s", r.StatusCode, raw)
	}
	op := serveOp{ms: float64(time.Since(t0)) / 1e6, hit: hit, raw: raw}
	if err := json.Unmarshal(raw, &op.resp); err != nil {
		return serveOp{}, fmt.Errorf("result: %w", err)
	}
	return op, nil
}

// warmUp sends one sweep, with a base seed outside the schedule, from
// nproc clients: every engine shape gets built and the connections opened
// before timing starts.
func (e *serveEnv) warmUp(seed uint64, rep *report) {
	var reqs []api.RunRequest
	for _, c := range serveCells() {
		for k := uint64(0); k < sweepSeeds; k++ {
			reqs = append(reqs, c.request(seed+k))
		}
	}
	var mu sync.Mutex
	next := 0
	clients(func() bool {
		mu.Lock()
		if next == len(reqs) {
			mu.Unlock()
			return false
		}
		req := reqs[next]
		next++
		mu.Unlock()
		op, err := e.do(req)
		mu.Lock()
		defer mu.Unlock()
		rep.attempted++
		if err != nil {
			rep.fail("warm-up %s: %v", describe(req), err)
		} else if msg := checkServed(req, op.resp); msg != "" {
			rep.fail("warm-up %s: %s", describe(req), msg)
		}
		return true
	})
}

// clients runs body in nproc goroutines until it returns false in each,
// and waits for them.
func clients(body func() bool) {
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body() {
			}
		}()
	}
	wg.Wait()
}

// passResult is one timed pass over the schedule.
type passResult struct {
	all, hits, misses timings
	// loadgenMisses are the misses of loadgen's configuration (broadcast,
	// n = 4096, ε = 0.3), half of all misses: the largest class of
	// homogeneous ops, so its median is the op latency.
	loadgenMisses   timings
	digest          map[int][sha256.Size]byte // of the response bytes, by schedule index
	missAgentRounds float64                   // Σ n·rounds of executed (miss) requests
	missPaths       pathsSum                  // over executed (miss) requests
	clientNs        int64
	wall            float64
}

// pass drives the schedule from its start for budget with nproc
// closed-loop clients and checks every reply.
func (e *serveEnv) pass(seed uint64, budget time.Duration, rep *report) *passResult {
	sched := newSchedule(seed)
	res := &passResult{digest: map[int][sha256.Size]byte{}}
	var mu sync.Mutex
	next := 0
	start := time.Now()
	clients(func() bool {
		mu.Lock()
		if time.Since(start) >= budget {
			mu.Unlock()
			return false
		}
		i := next
		next++
		it := sched.at(i)
		mu.Unlock()

		op, err := e.do(it.req)
		mu.Lock()
		defer mu.Unlock()
		rep.attempted++
		if err != nil {
			rep.fail("request %d (%s): %v", i, describe(it.req), err)
			return true
		}
		res.clientNs += int64(op.ms * 1e6)
		res.all = append(res.all, op.ms)
		if op.hit {
			res.hits = append(res.hits, op.ms)
		} else {
			res.misses = append(res.misses, op.ms)
			if it.req.N == loadgenN && it.req.Eps == loadgenEps {
				res.loadgenMisses = append(res.loadgenMisses, op.ms)
			}
			res.missAgentRounds += float64(it.req.N) * float64(op.resp.Rounds)
			res.missPaths.add(op.resp.Paths)
		}
		res.digest[i] = sha256.Sum256(op.raw)
		origin, done := res.digest[it.origin]
		switch {
		case op.hit != it.repeat(i):
			rep.fail("request %d: cache hit=%v, but the schedule says repeat=%v", i, op.hit, it.repeat(i))
		case !done:
			rep.fail("request %d: repeats request %d, which has not completed", i, it.origin)
		case origin != res.digest[i]:
			rep.fail("request %d: hit bytes differ from request %d's", i, it.origin)
		default:
			if msg := checkServed(it.req, op.resp); msg != "" {
				rep.fail("request %d (%s): %s", i, describe(it.req), msg)
			}
		}
		return true
	})
	res.wall = time.Since(start).Seconds()
	return res
}

// metricsText snapshots the service registry as series → value.
func (e *serveEnv) metricsText() (map[string]float64, error) {
	var b bytes.Buffer
	if err := e.svc.Registry().WriteText(&b); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:sp]] = v
	}
	return m, nil
}

// setUpServe starts a service and warms it up, setups times, keeping the
// last; it returns the set-up times in seconds.
func setUpServe(seed uint64, traced bool, rep *report) (*serveEnv, timings, error) {
	warm := newRand(seed, streamWarm)
	var setupS timings
	var env *serveEnv
	for i := 0; i < setups; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = startServe(traced); err != nil {
			return nil, nil, err
		}
		env.warmUp(warm.Uint64(), rep)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	return env, setupS, nil
}

func serveMix(opts options) (*report, error) {
	rep := newReport()
	budget := time.Duration(opts.seconds * float64(time.Second))
	if opts.traced {
		return rep, serveTraced(opts.seed, budget, rep)
	}
	env, setupS, err := setUpServe(opts.seed, false, rep)
	if err != nil {
		return nil, err
	}
	res := env.pass(opts.seed, budget, rep)
	if err := env.close(); err != nil {
		return nil, err
	}
	rep.logf("%s", setupS.summary("setup", "s"))
	rep.logf("setup samples (s): %.4f", setupS)
	rep.logf("%s", res.all.summary("op", "ms"))
	rep.logf("%s", res.hits.summary("hit op", "ms"))
	rep.logf("%s", res.misses.summary("miss op", "ms"))
	rep.logf("%s", res.loadgenMisses.summary("miss op, loadgen's configuration", "ms"))
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS.median(), "s")
	rep.set("op_p50_ms", res.loadgenMisses.median(), "ms")
	rep.set("ops_per_s", float64(len(res.all))/res.wall, "1/s")
	rep.set("agent_rounds_per_s", res.missAgentRounds/res.wall, "1/s")
	rep.set("peak_rss_mb", rss, "MiB")
	return rep, nil
}

// serveTraced makes an untraced pass and a traced pass of half the budget
// each, on fresh services, and takes the split from the traced one.
func serveTraced(seed uint64, budget time.Duration, rep *report) error {
	plainEnv, _, err := setUpServe(seed, false, rep)
	if err != nil {
		return err
	}
	plain := plainEnv.pass(seed, budget/2, rep)
	if err := plainEnv.close(); err != nil {
		return err
	}

	env, _, err := setUpServe(seed, true, rep)
	if err != nil {
		return err
	}
	before, err := env.metricsText()
	if err != nil {
		env.close()
		return err
	}
	stats0 := env.svc.Stats()
	posts0, postNs0 := env.timer.posts.Load(), env.timer.postNs.Load()
	handlerNs0 := postNs0 + env.timer.getNs.Load()
	traced := env.pass(seed, budget/2, rep)
	after, err := env.metricsText()
	if err != nil {
		env.close()
		return err
	}
	stats := env.svc.Stats()
	posts := env.timer.posts.Load() - posts0
	postNs := env.timer.postNs.Load() - postNs0
	handlerNs := env.timer.postNs.Load() + env.timer.getNs.Load() - handlerNs0
	if err := env.close(); err != nil {
		return err
	}

	for i, d := range traced.digest {
		if p, ok := plain.digest[i]; ok && p != d {
			rep.fail("request %d: traced response differs from untraced", i)
		}
	}
	rep.logf("%s", plain.loadgenMisses.summary("miss op, loadgen's configuration", "ms"))
	rep.logf("%s", traced.loadgenMisses.summary("traced miss op, loadgen's configuration", "ms"))

	delta := func(series string) float64 { return after[series] - before[series] }
	runs := delta("breathe_run_wall_seconds_count")
	var phaseNs [telemetry.NumPhases]int64
	for i, name := range telemetry.PhaseNames() {
		phaseNs[i] = int64(delta(`breathe_sim_phase_seconds_total{phase="`+name+`"}`) * 1e9)
	}
	setSimLayer(rep, simSplit{
		runs:        runs,
		runNs:       delta("breathe_run_wall_seconds_sum") * 1e9,
		agentRounds: traced.missAgentRounds,
		paths:       traced.missPaths,
		phaseNs:     phaseNs,
	})
	setProtoLayer(rep, &protoTimes{}, 0)
	for _, name := range []string{"api.build_ms", "api.response_ms", "api.encode_ms"} {
		rep.set(name, 0, "ms")
	}
	ops := float64(len(traced.all))
	setServiceLayer(rep, serviceSplit{
		submitMs:      ratio(float64(postNs)/1e6, float64(posts)),
		queueWaitMs:   ratio(delta("breathe_queue_wait_seconds_sum")*1e3, delta("breathe_queue_wait_seconds_count")),
		hitRatio:      ratio(float64(stats.CacheHits-stats0.CacheHits), float64(stats.Submitted-stats0.Submitted)),
		reuseRatio:    ratio(float64(stats.EnginesReused-stats0.EnginesReused), float64(stats.Executed-stats0.Executed)),
		sharedFlights: float64(stats.SharedFlights - stats0.SharedFlights),
		clientMs:      ratio(float64(traced.clientNs-handlerNs)/1e6, ops),
	})
	rep.set("trace.overhead_frac", traced.loadgenMisses.median()/plain.loadgenMisses.median()-1, "ratio")
	return nil
}

// checkServed returns why resp, built by the service, is not a valid
// response to req, or "".
func checkServed(req api.RunRequest, resp api.RunResponse) string {
	if resp.Hash != req.Hash() {
		return fmt.Sprintf("response hash %s != request hash %s", resp.Hash, req.Hash())
	}
	return checkResponse(req, resp)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// serviceSplit is the service layer's share of serve-mix requests.
type serviceSplit struct {
	submitMs, queueWaitMs, hitRatio, reuseRatio, sharedFlights, clientMs float64
}

func setServiceLayer(rep *report, s serviceSplit) {
	rep.set("service.submit_ms", s.submitMs, "ms")
	rep.set("service.queue_wait_ms", s.queueWaitMs, "ms")
	rep.set("service.hit_ratio", s.hitRatio, "ratio")
	rep.set("service.engine_reuse_ratio", s.reuseRatio, "ratio")
	rep.set("service.shared_flights", s.sharedFlights, "count")
	rep.set("http.client_ms", s.clientMs, "ms")
}
