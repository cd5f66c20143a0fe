package main

import (
	"strings"
	"testing"
)

func TestPercentileSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},   // rank 990, 10 beyond
		{999, 0.99, false},   // rank 990, 9 beyond
		{100, 0.9, true},     // rank 90, 10 beyond
		{99, 0.9, false},     // rank 90, 9 beyond
		{10000, 0.999, true}, // rank 9990, 10 beyond
		{9999, 0.999, false},
		{10, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestPercentileValue(t *testing.T) {
	var ts timings
	for i := 1000; i >= 1; i-- {
		ts = append(ts, float64(i))
	}
	if v, ok := ts.percentile(0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := ts.percentile(0.999); ok {
		t.Error("p999 of 1000 samples reported with only 1 sample beyond it")
	}
	if got := ts.median(); got != 500.5 {
		t.Errorf("median of 1..1000 = %v, want 500.5", got)
	}
}

func TestSummaryReportsOnlySupportedPercentiles(t *testing.T) {
	few := timings{3, 1, 2}
	if s := few.summary("op", "ms"); strings.Contains(s, "p90=") || !strings.Contains(s, "n=3 p50=2.0000ms") {
		t.Errorf("summary of 3 samples = %q", s)
	}
	many := make(timings, 1000)
	for i := range many {
		many[i] = float64(i)
	}
	if s := many.summary("op", "ms"); !strings.Contains(s, "p99=") || strings.Contains(s, "p999=") {
		t.Errorf("summary of 1000 samples = %q, want p99 and no p999", s)
	}
}
