// Command perfbench is the repository's end-to-end benchmark. It times
// what a user of the simulator waits for — a full paper-protocol run, and
// a breathed request — and, in a separate traced invocation, splits that
// time across the layers of the program.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs in its own process under the keyed draw schedule,
// with at most nproc clients, and checks every output it receives.
//
// # Workloads
//
// broadcast-dense: closed loop, one client, keyed Broadcast at n = 2^17,
// ε = 0.3, shards = nproc. One engine is built at set-up; each op is
// NewProtocol → Reset(seed) → Run → NewResponse → Marshal. It covers the
// paper's Stage I and Stage II with a working set past the L2 cache:
// about 1500 tree rounds and 790 scatter rounds, with the tree kernel's
// collision phase dominating, so tree-kernel and multi-core changes show
// here.
//
// selfsync-scatter: closed loop, one client, keyed async self-sync at
// n = 2^15, ε = 0.3. It covers the rest of the sim layer: scatter and
// quiet rounds only (no tree round), serial and L2-resident, plus the
// async protocol's class bookkeeping. A tree-kernel change should show no
// change here.
//
// serve-mix: closed loop, nproc keep-alive HTTP clients against an
// in-process service.NewHTTPHandler with Workers = nproc. Each op is
// POST /v1/runs then GET /v1/runs/{id}/result?wait=1. The traffic is that
// of breathed's in-repo callers at their default settings, which wait for
// each reply, so the loop is closed. The sequence is a pure function of
// the seed and alternates, in equal shares, one cmd/sweep run (broadcast ×
// n {1024, 4096} × ε {0.2, 0.3}, five consecutive seeds per cell: 20
// distinct requests) and a cmd/loadgen batch of 20 (broadcast, n = 4096,
// ε = 0.3, hit ratio 0.5). A repeat follows its original by more than 100
// requests, when the original has completed and is still cached, so the
// schedule alone fixes which requests hit (loadgen itself sends a repeat
// alongside its original, where timing decides between a cache hit and a
// single-flight join). A quarter of the requests hit; the misses run the
// tree and scatter kernels at n ≤ 4096, and their kernel time dwarfs the
// per-request layers, which the traced run splits out.
//
// # End-to-end metrics (untraced runs, --trace 0)
//
//	setup_s             median of three set-ups: Build, NewEngine and one
//	                    warm-up op (paper workloads); service and listener
//	                    start-up plus one warm-up sweep outside the
//	                    schedule (serve-mix)
//	op_p50_ms           median op latency; on serve-mix, of the misses of
//	                    loadgen's configuration, half of all misses: the
//	                    other requests are of three run sizes and the hits,
//	                    and a median over mixed classes moves with the
//	                    share of each more than with the program's speed
//	ops_per_s           completed ops / measured wall time
//	agent_rounds_per_s  Σ n·rounds of executed runs / measured wall time
//	                    (cache hits run no kernel and are not counted)
//	peak_rss_mb         VmHWM of the benchmark process
//
// A timing's sample count and its highest supported percentile (at least
// ten samples beyond it) are printed on the lines before the result.
//
// # Per-layer metrics (traced runs, --trace 1)
//
// Spans are taken from outside the program, around calls into public
// functions, and from what it already exposes; no hook is added to it.
// Per-op figures are means, so a layer's parts add up to its whole.
//
//	internal/sim      sim.run_ms, sim.ns_per_agent_round,
//	                  sim.rounds_{tree,scatter,quiet,sparse} (Result.Paths),
//	                  sim.phase_{senders,placement,collision,noise,
//	                  accumulate,barrier}_ms (telemetry.RunProbe armed via
//	                  Engine.SetTelemetry; the service registry in serve-mix),
//	                  sim.unattributed_ms (run time minus the phases).
//	                  Move op_p50_ms and agent_rounds_per_s: tree phases on
//	                  broadcast-dense (no change predicted on
//	                  selfsync-scatter); scatter placement and collision on
//	                  selfsync-scatter.
//	internal/core,    proto.{setup,senders,deliver,end_round}_ms and _calls,
//	internal/async    timed by a forwarder around the protocol (paper
//	                  workloads; serve-mix builds its protocols inside the
//	                  service, out of reach, and reports 0). Move
//	                  op_p50_ms: core on broadcast-dense, async on
//	                  selfsync-scatter.
//	internal/api      api.build_ms, api.response_ms, api.encode_ms, timed
//	                  around the paper workloads' calls; under 0.1 % of a
//	                  paper op.
//	internal/service  service.submit_ms (POST handler time),
//	and the handler   service.queue_wait_ms (Registry histogram; the
//	                  kernel time is sim.run_ms), service.hit_ratio,
//	                  service.engine_reuse_ratio (reused / executed),
//	                  service.shared_flights (Stats), http.client_ms (client
//	                  latency minus handler time). serve-mix only; they move
//	                  op_p50_ms and ops_per_s.
//	tracing           trace.overhead_frac: traced vs untraced op_p50_ms in
//	                  the same run, reported, not gated.
//
// A traced run also checks that every traced op's response bytes and
// Result.Paths equal an untraced op's for the same seed, which proves the
// forwarder presents the inner protocol's capabilities.
//
// Left unmeasured on purpose: internal/sweep (its own cost is inside the
// noise), the sparse walker (a DRAM-bound regime that stays a cmd/bench
// cell), the legacy schedule, crash plans, the trajectory and trace
// endpoints, and internal/rng and internal/channel (inlined in the kernel
// loops, so they show only through the sim phases).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	lines             []string // human-readable detail, printed before the result
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail counts one failed op and records why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		r.logf("FAILED: "+format, args...)
	}
}

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
}

type workload func(options) (*report, error)

var workloads = map[string]workload{
	"broadcast-dense":  broadcastDense.run,
	"selfsync-scatter": selfsyncScatter.run,
	"serve-mix":        serveMix,
}

func main() {
	name := flag.String("workload", "", "workload: broadcast-dense | selfsync-scatter | serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	commit := flag.String("commit", "unknown", "source revision, for the environment stamp")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	env := envStamp(*name, *seed, *commit)
	fmt.Println("# env " + env)
	rep, err := run(options{seed: *seed, seconds: *seconds, traced: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range rep.lines {
		fmt.Println("# " + l)
	}
	fmt.Printf("# ops_attempted=%d ops_failed=%d\n", rep.attempted, rep.failed)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// envStamp describes the machine and inputs a result was measured on.
func envStamp(name string, seed uint64, commit string) string {
	b, _ := json.Marshal(map[string]any{
		"workload":   name,
		"seed":       seed,
		"commit":     commit,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"l2":         cacheSize(2),
		"l3":         cacheSize(3),
	})
	return string(b)
}

// cacheSize reads cpu0's unified cache size at the given level from sysfs,
// or "unknown".
func cacheSize(level int) string {
	const dir = "/sys/devices/system/cpu/cpu0/cache/"
	for i := 0; i < 8; i++ {
		idx := dir + "index" + strconv.Itoa(i) + "/"
		lv, err := os.ReadFile(idx + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(idx + "type")
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if sz, err := os.ReadFile(idx + "size"); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("perfbench: no VmHWM in /proc/self/status")
}

// newRand returns the workload's input generator for one stream of the
// seed. It uses the standard library's PCG, not the simulator's rng, so a
// change to the program under test cannot change the benchmark's inputs.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}
