package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"breathe/internal/api"
	"breathe/internal/sim"
	"breathe/internal/telemetry"
)

// paperWorkload is one paper-protocol run configuration, timed op by op
// on a single engine that is built once.
type paperWorkload struct {
	protocol string
	n        int
	eps      float64
}

var (
	broadcastDense  = paperWorkload{api.ProtoBroadcast, 1 << 17, 0.3}
	selfsyncScatter = paperWorkload{api.ProtoAsyncSelfSync, 1 << 15, 0.3}
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// Input streams of the workload seed.
const (
	streamOps = iota + 1
	streamWarm
)

func (w paperWorkload) request(seed uint64) api.RunRequest {
	return api.RunRequest{
		Protocol: w.protocol,
		N:        w.n,
		Eps:      w.eps,
		Seed:     seed,
		Schedule: api.ScheduleKeyed,
		Shards:   runtime.NumCPU(),
	}
}

// paperHarness is one set-up: the built run and its engine.
type paperHarness struct {
	req api.RunRequest
	run *api.Run
	eng *sim.Engine
}

// paperOp is the outcome of one op.
type paperOp struct {
	ms          float64
	raw         []byte
	resp        api.RunResponse
	agentRounds float64
}

// tracer collects the per-layer split of traced ops.
type tracer struct {
	probe                   *telemetry.RunProbe
	proto                   protoTimes
	ops                     int
	runNs, respNs, encodeNs int64
	phaseNs                 [telemetry.NumPhases]int64
	paths                   pathsSum
	agentRounds             float64
}

// setUp builds the run and its engine and makes one warm-up op, which
// allocates the engine's buffers. It returns the time Build took.
func (w paperWorkload) setUp(warmSeed uint64, rep *report) (*paperHarness, time.Duration, error) {
	t0 := time.Now()
	req := w.request(warmSeed)
	run, err := req.Build()
	if err != nil {
		return nil, 0, fmt.Errorf("build %s: %w", w.protocol, err)
	}
	build := time.Since(t0)
	eng, err := sim.NewEngine(run.Config)
	if err != nil {
		return nil, 0, fmt.Errorf("engine for %s: %w", w.protocol, err)
	}
	h := &paperHarness{req: req, run: run, eng: eng}
	rep.attempted++
	if _, err := h.op(warmSeed, nil, rep); err != nil {
		return nil, 0, err
	}
	return h, build, nil
}

// op makes one run with the given seed and checks its response. With a
// tracer it arms the engine's run probe, wraps the protocol and times
// each api call.
func (h *paperHarness) op(seed uint64, tr *tracer, rep *report) (paperOp, error) {
	req := h.req
	req.Seed = seed
	// The previous op's protocol is garbage: collect it outside the timed
	// span, so no op pays for another's allocations and the peak RSS does
	// not depend on when the collector happened to run.
	runtime.GC()
	t0 := time.Now()
	p := h.run.NewProtocol()
	h.eng.Reset(seed)
	if tr != nil {
		tr.probe.Reset()
		h.eng.SetTelemetry(tr.probe)
		var err error
		if p, err = wrap(p, &tr.proto); err != nil {
			return paperOp{}, err
		}
	} else {
		h.eng.SetTelemetry(nil)
	}
	t1 := time.Now()
	res := h.eng.Run(p)
	t2 := time.Now()
	resp := api.NewResponse(req, res, h.run.Crashed, p)
	t3 := time.Now()
	raw, err := json.Marshal(resp)
	if err != nil {
		return paperOp{}, fmt.Errorf("encode response: %w", err)
	}
	t4 := time.Now()
	op := paperOp{
		ms:          float64(t4.Sub(t0)) / 1e6,
		raw:         raw,
		resp:        resp,
		agentRounds: float64(req.N) * float64(resp.Rounds),
	}
	if tr != nil {
		tr.ops++
		tr.runNs += int64(t2.Sub(t1))
		tr.respNs += int64(t3.Sub(t2))
		tr.encodeNs += int64(t4.Sub(t3))
		for i, ns := range tr.probe.PhaseNanos() {
			tr.phaseNs[i] += ns
		}
		tr.paths.add(res.Paths)
		tr.agentRounds += op.agentRounds
	}
	if msg := checkResponse(req, resp); msg != "" {
		rep.fail("seed %d: %s", seed, msg)
	} else if req.Protocol == api.ProtoBroadcast && resp.Rounds != h.run.ScheduleRounds {
		// Broadcast has a fixed schedule: Stage I, then Stage II.
		rep.fail("seed %d: broadcast ran %d rounds, its schedule has %d", seed, resp.Rounds, h.run.ScheduleRounds)
	} else if !resp.Unanimous {
		rep.fail("seed %d: %s run not unanimous (correct fraction %v)", seed, describe(req), resp.CorrectFraction)
	}
	return op, nil
}

func describe(req api.RunRequest) string {
	return fmt.Sprintf("%s n=%d eps=%v", req.Protocol, req.N, req.Eps)
}

// checkResponse returns why resp is not a valid response to req, or "".
// It checks the run's own accounting: messages, agents and rounds.
func checkResponse(req api.RunRequest, resp api.RunResponse) string {
	switch {
	case resp.MessagesAccepted+resp.MessagesDropped != resp.MessagesSent:
		return fmt.Sprintf("accepted %d + dropped %d != sent %d", resp.MessagesAccepted, resp.MessagesDropped, resp.MessagesSent)
	case resp.Opinions[0]+resp.Opinions[1]+resp.Undecided != req.N:
		return fmt.Sprintf("opinions %v + undecided %d != n %d", resp.Opinions, resp.Undecided, req.N)
	case resp.Paths.Total() != int64(resp.Rounds):
		return fmt.Sprintf("paths %v count %d rounds, the run %d", resp.Paths, resp.Paths.Total(), resp.Rounds)
	case resp.Canceled || resp.Truncated:
		return fmt.Sprintf("run canceled=%v truncated=%v", resp.Canceled, resp.Truncated)
	}
	return ""
}

// pathsSum counts rounds by keyed sampling regime: tree covers the dense
// and sharded executions, scatter the per-message and per-agent ones.
type pathsSum struct{ tree, scatter, quiet, sparse int64 }

func (s *pathsSum) add(p sim.PathRounds) {
	s.tree += p.Dense + p.Sharded
	s.scatter += p.PerMessage + p.PerAgent
	s.quiet += p.Quiet
	s.sparse += p.Sparse
}

// run measures the workload: set-up three times, then ops until the
// time is up. A traced run pairs every op with an untraced op of the same
// seed and checks that they agree byte for byte.
func (w paperWorkload) run(opts options) (*report, error) {
	rep := newReport()
	warm := newRand(opts.seed, streamWarm)
	var h *paperHarness
	var setupS, buildMs timings
	for i := 0; i < setups; i++ {
		h = nil
		runtime.GC() // the previous set-up's engine is garbage; keep it out of this one's peak
		t0 := time.Now()
		var build time.Duration
		var err error
		if h, build, err = w.setUp(warm.Uint64(), rep); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		buildMs = append(buildMs, float64(build)/1e6)
	}
	rep.logf("%s", setupS.summary("setup", "s"))
	rep.logf("setup samples (s): %.4f", setupS)

	seeds := newRand(opts.seed, streamOps)
	budget := time.Duration(opts.seconds * float64(time.Second))
	var plain, traced timings
	var tr *tracer
	if opts.traced {
		tr = &tracer{probe: telemetry.NewRunProbe()}
	}
	agentRounds := 0.0
	start := time.Now()
	var last time.Duration
	for len(plain) == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		seed := seeds.Uint64()
		rep.attempted++
		a, err := h.op(seed, nil, rep)
		if err != nil {
			return nil, err
		}
		plain = append(plain, a.ms)
		agentRounds += a.agentRounds
		if tr != nil {
			b, err := h.op(seed, tr, rep)
			if err != nil {
				return nil, err
			}
			traced = append(traced, b.ms)
			if string(a.raw) != string(b.raw) || a.resp.Paths != b.resp.Paths {
				rep.fail("seed %d: traced response differs from untraced (paths %v vs %v)", seed, b.resp.Paths, a.resp.Paths)
			}
		}
		last = time.Since(t0)
	}
	wall := time.Since(start).Seconds()
	rep.logf("%s", plain.summary("op", "ms"))
	rep.logf("op samples (ms, in run order): %.1f", plain)

	if tr != nil {
		rep.logf("%s", traced.summary("traced op", "ms"))
		ops := float64(tr.ops)
		setSimLayer(rep, simSplit{
			runs:        ops,
			runNs:       float64(tr.runNs),
			agentRounds: tr.agentRounds,
			paths:       tr.paths,
			phaseNs:     tr.phaseNs,
		})
		rep.set("api.build_ms", buildMs.mean(), "ms")
		rep.set("api.response_ms", float64(tr.respNs)/ops/1e6, "ms")
		rep.set("api.encode_ms", float64(tr.encodeNs)/ops/1e6, "ms")
		setProtoLayer(rep, &tr.proto, ops)
		setServiceLayer(rep, serviceSplit{})
		rep.set("trace.overhead_frac", traced.median()/plain.median()-1, "ratio")
		return rep, nil
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS.median(), "s")
	rep.set("op_p50_ms", plain.median(), "ms")
	rep.set("ops_per_s", float64(len(plain))/wall, "1/s")
	rep.set("agent_rounds_per_s", agentRounds/wall, "1/s")
	rep.set("peak_rss_mb", rss, "MiB")
	return rep, nil
}

// simSplit is the sim layer's share of a traced run's ops.
type simSplit struct {
	runs, runNs, agentRounds float64
	paths                    pathsSum
	phaseNs                  [telemetry.NumPhases]int64
}

func setSimLayer(rep *report, s simSplit) {
	perRun := func(v float64) float64 {
		if s.runs == 0 {
			return 0
		}
		return v / s.runs
	}
	runMs := perRun(s.runNs) / 1e6
	rep.set("sim.run_ms", runMs, "ms")
	nsPerAR := 0.0
	if s.agentRounds > 0 {
		nsPerAR = s.runNs / s.agentRounds
	}
	rep.set("sim.ns_per_agent_round", nsPerAR, "ns")
	rep.set("sim.rounds_tree", perRun(float64(s.paths.tree)), "count")
	rep.set("sim.rounds_scatter", perRun(float64(s.paths.scatter)), "count")
	rep.set("sim.rounds_quiet", perRun(float64(s.paths.quiet)), "count")
	rep.set("sim.rounds_sparse", perRun(float64(s.paths.sparse)), "count")
	phases := 0.0
	for i, name := range telemetry.PhaseNames() {
		ms := perRun(float64(s.phaseNs[i])) / 1e6
		phases += ms
		rep.set("sim.phase_"+name+"_ms", ms, "ms")
	}
	rep.set("sim.unattributed_ms", runMs-phases, "ms")
}

func setProtoLayer(rep *report, t *protoTimes, ops float64) {
	for _, c := range []struct {
		name string
		s    callStat
	}{{"setup", t.setup}, {"senders", t.senders}, {"deliver", t.deliver}, {"end_round", t.endRound}} {
		ms, calls := 0.0, 0.0
		if ops > 0 {
			ms, calls = float64(c.s.ns)/ops/1e6, float64(c.s.calls)/ops
		}
		rep.set("proto."+c.name+"_ms", ms, "ms")
		rep.set("proto."+c.name+"_calls", calls, "count")
	}
}
