package diskio

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPerQueryStatsSumToAggregates is the double-counting regression test:
// with 64 concurrent "queries" each touching pages through its own Stats
// counter, the per-query counters must sum EXACTLY to the pool's atomic
// aggregates — every touch charged once to each, never zero or twice.
func TestPerQueryStatsSumToAggregates(t *testing.T) {
	const (
		goroutines = 64
		touches    = 2000
		pages      = 512
		capacity   = 40
	)
	pool := NewPool(capacity, DefaultPoolShards)
	perQuery := make([]Stats, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) * 911))
			for j := 0; j < touches; j++ {
				// Mix of Touch and TouchEvict — both must charge identically.
				id := PageID(rng.Intn(pages))
				if j%2 == 0 {
					pool.Touch(id, &perQuery[i])
				} else {
					pool.TouchEvict(id, &perQuery[i])
				}
			}
		}(i)
	}
	wg.Wait()

	var sum Stats
	for i := range perQuery {
		if got := perQuery[i].Accesses(); got != touches {
			t.Fatalf("query %d recorded %d accesses, made %d", i, got, touches)
		}
		sum.Add(perQuery[i])
	}
	agg := pool.Stats()
	if sum != agg {
		t.Fatalf("per-query sum %+v != pool aggregates %+v", sum, agg)
	}
	if want := int64(goroutines * touches); sum.Accesses() != want {
		t.Fatalf("total accesses %d, want %d", sum.Accesses(), want)
	}
}

// TestTrackerPerQuerySum runs the same invariant through the two touch
// paths real queries use: the store charging its block pages straight to the
// pool, and the Tracker charging adjacency pages above them. (The root
// package's TestDiskPerQueryStatsSumToPool repeats it end to end on a real
// paged image.)
func TestTrackerPerQuerySum(t *testing.T) {
	const goroutines = 64
	const blockPages = 68 // 300 runs of 40..76 16-byte blocks
	degrees := make([]int, 300)
	for i := range degrees {
		degrees[i] = 3 + i%4
	}
	pool := NewPool(4, DefaultPoolShards)
	tr := NewStoreTracker(blockPages, degrees, pool)
	perQuery := make([]Stats, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) * 313))
			for j := 0; j < 1500; j++ {
				if j%3 == 0 {
					tr.TouchAdjacency(rng.Intn(len(degrees)), &perQuery[i])
				} else {
					pool.TouchEvict(PageID(rng.Intn(blockPages)), &perQuery[i])
				}
			}
		}(i)
	}
	wg.Wait()
	var sum Stats
	for i := range perQuery {
		sum.Add(perQuery[i])
	}
	if agg := tr.Stats(); sum != agg {
		t.Fatalf("per-query sum %+v != tracker aggregates %+v", sum, agg)
	}
}
