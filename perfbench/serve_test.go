package main

import (
	"testing"

	"breathe/internal/api"
)

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	const n = 5000
	a, b, other := newSchedule(7), newSchedule(7), newSchedule(8)
	// Generate b in a different order of calls: generation is lazy.
	b.at(n - 1)
	differs := false
	for i := 0; i < n; i++ {
		x, y := a.at(i), b.at(i)
		if x != y {
			t.Fatalf("seed 7, request %d: %+v vs %+v", i, x, y)
		}
		if x != other.at(i) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 give the same schedule")
	}
}

func TestScheduleHitsAreFixedByTheSchedule(t *testing.T) {
	const n = 20000
	s := newSchedule(3)
	lastUse := map[int]int{} // origin → latest index that requested it
	fresh := map[api.RunRequest]int{}
	repeats := 0
	for i := 0; i < n; i++ {
		it := s.at(i)
		if !it.repeat(i) {
			if j, dup := fresh[it.req]; dup {
				t.Fatalf("fresh requests %d and %d are the same request", j, i)
			}
			fresh[it.req] = i
			lastUse[i] = i
			continue
		}
		repeats++
		if s.at(it.origin).origin != it.origin || s.at(it.origin).req != it.req {
			t.Fatalf("request %d repeats %d, which is not the fresh request it names", i, it.origin)
		}
		// The fresh request has completed if at least repeatMinGap requests
		// came after it (no single-flight join). Its cache entry was last
		// touched at lastUse, and every request since adds at most one
		// entry, so it is still cached if fewer than the cache's 1024
		// requests came between.
		if age := i - it.origin; age < repeatMinGap {
			t.Fatalf("request %d repeats %d, only %d requests earlier", i, it.origin, age)
		}
		if idle := i - lastUse[it.origin]; idle >= 1024 {
			t.Fatalf("request %d repeats %d, last requested %d requests earlier", i, it.origin, idle)
		}
		lastUse[it.origin] = i
	}
	// Every block past the first repeatLag holds batch/2 repeats.
	if want := (n/block - repeatLag) * batch / 2; repeats != want {
		t.Errorf("%d repeats in %d requests, want %d", repeats, n, want)
	}
	// Each block is one sweep of the grid in order, then a loadgen batch.
	for b := 0; b < n/block; b++ {
		k := 0
		for _, c := range serveCells() {
			for j := 0; j < sweepSeeds; j++ {
				it := s.at(b*block + k)
				if got := (serveCell{it.req.N, it.req.Eps}); got != c || it.req.Seed != s.at(b*block).req.Seed+uint64(k%sweepSeeds) {
					t.Fatalf("block %d, sweep request %d: %v seed %d", b, k, got, it.req.Seed)
				}
				k++
			}
		}
		for ; k < block; k++ {
			if it := s.at(b*block + k); it.req.N != loadgenN || it.req.Eps != loadgenEps {
				t.Fatalf("block %d, loadgen request %d: n=%d eps=%v", b, k, it.req.N, it.req.Eps)
			}
		}
	}
}
