package bench

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
)

// TestThroughputScalesWithGoroutines is the acceptance check that parallel
// QPS beats single-goroutine QPS on a shared disk-resident index, whose
// buffer pool is one LRU under one lock. Margins stay loose: the point is
// that the lock does not serialize the queries, not a precise speedup
// figure; the test logs the speedup it measured, so a run on a machine of
// 4 or more CPUs records what the lock costs there.
func TestThroughputScalesWithGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput scaling check skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs >= 4 CPUs to demonstrate scaling")
	}
	env, err := NewEnv(48, 48, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	rng := rand.New(rand.NewSource(9))
	objs := env.ObjectSet(0.05, rng)
	queries := make([]graph.VertexID, 600)
	for i := range queries {
		queries[i] = env.Query(rng)
	}
	// qps answers every query once with the given number of workers over a
	// freshly reopened store, so no run rides pages an earlier one faulted
	// in. Each worker drains a shared cursor with its own query context, the
	// steady state a pooled server reaches.
	qps := func(workers int) float64 {
		ix, err := env.Cold()
		if err != nil {
			t.Fatal(err)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				qc := core.NewQueryContext()
				for i := next.Add(1) - 1; i < int64(len(queries)); i = next.Add(1) - 1 {
					qc.ResetForReuse(nil)
					res := knn.SearchSpec(ix, qc, objs, queries[i], knn.UnboundedSpec(10, knn.VariantKNN))
					if res.Err != nil {
						t.Error(res.Err)
						return
					}
				}
			}()
		}
		wg.Wait()
		return float64(len(queries)) / time.Since(start).Seconds()
	}
	// Best of two tries guards against scheduler noise on loaded CI boxes.
	best := 0.0
	for try := 0; try < 2 && best < 1.3; try++ {
		one := qps(1)
		best = max(best, qps(4)/one)
	}
	t.Logf("4-goroutine speedup %.2fx on %d CPUs (best of up to two tries)", best, runtime.GOMAXPROCS(0))
	if best < 1.15 {
		t.Fatalf("4-goroutine speedup = %.2fx; parallel querying should beat single-goroutine", best)
	}
}
