package diskio

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPerQueryStatsSumToAggregates is the double-counting regression test:
// with 64 concurrent "queries" each reading pages through its own Stats
// counter, the per-query counters must sum EXACTLY to the pool's
// aggregates — every read charged once to each, never zero or twice.
func TestPerQueryStatsSumToAggregates(t *testing.T) {
	const (
		goroutines = 64
		touches    = 2000
		pages      = 512
		capacity   = 40
	)
	pool := NewPool(capacity, 1)
	perQuery := make([]Stats, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) * 911))
			for j := 0; j < touches; j++ {
				// Mix of reads that want bytes and TouchEvict, which wants
				// none — both must charge identically.
				id := PageID(rng.Intn(pages))
				if j%2 == 0 {
					var dst [8]byte
					pool.Read(id, &perQuery[i], dst[:], 0, fillID(id))
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
