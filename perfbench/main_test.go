package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"breathe/internal/api"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMetricsMatchBenchmarkJSON runs every workload briefly, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// declares, with their units, and no failed op.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, names)
	}

	// Small paper configurations keep the test fast; the code path is the
	// workloads' own.
	small := map[string]workload{
		"broadcast-dense":  paperWorkload{api.ProtoBroadcast, 1 << 11, 0.3}.run,
		"selfsync-scatter": paperWorkload{api.ProtoAsyncSelfSync, 1 << 10, 0.3}.run,
		"serve-mix":        serveMix,
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, err := small[name](options{seed: 1, seconds: 0.3, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", name, traced, rep.failed, rep.attempted, rep.lines)
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(rep.metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), declared unit %s", name, traced, d.Name, m, ok, d.Unit)
				}
			}
		}
	}
}
