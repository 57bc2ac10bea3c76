package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
)

// ThroughputPoint is the outcome of replaying one query workload at one
// goroutine count.
type ThroughputPoint struct {
	Goroutines int
	Queries    int
	Wall       time.Duration
	QPS        float64
	// Speedup is QPS relative to the sweep's first point (1.0 for that
	// point itself); pass goroutines starting at 1 to read it as
	// parallel speedup.
	Speedup float64
	// PageHits/PageMisses are the pool-wide traffic of the run (zeros for
	// memory-resident indexes).
	PageHits   int64
	PageMisses int64
}

// ThroughputWorkload is a fixed random workload replayed identically at
// every goroutine count of a sweep.
type ThroughputWorkload struct {
	Objs    *knn.Objects
	Queries []graph.VertexID
	K       int
}

// NewThroughputWorkload draws one shared object set (fraction*N objects)
// and n random query vertices.
func (e *Env) NewThroughputWorkload(n int, fraction float64, k int, seed int64) ThroughputWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := ThroughputWorkload{
		Objs:    e.ObjectSet(fraction, rng),
		Queries: make([]graph.VertexID, n),
		K:       k,
	}
	for i := range w.Queries {
		w.Queries[i] = e.Query(rng)
	}
	return w
}

// ThroughputSweep replays the workload once per goroutine count and reports
// QPS at each — the query-throughput scaling curve. Every run answers the
// identical queries with the paper's kNN algorithm over the one shared index
// cold returns. Pass Env.Cold: a disk-resident environment then reopens its
// store before every run, so later runs don't ride pages faulted in by
// earlier ones.
func ThroughputSweep(cold func() (core.QueryIndex, error), w ThroughputWorkload, goroutines []int) ([]ThroughputPoint, error) {
	points := make([]ThroughputPoint, 0, len(goroutines))
	var baseQPS float64
	for _, gc := range goroutines {
		if gc < 1 {
			gc = 1
		}
		ix, err := cold()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < gc; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One context per worker: each goroutine reuses its own
				// scratch arena across the queries it drains, the same
				// steady state a pooled server reaches.
				qc := core.NewQueryContext()
				for {
					qi := next.Add(1) - 1
					if qi >= int64(len(w.Queries)) {
						return
					}
					qc.ResetForReuse(nil)
					knn.SearchSpec(ix, qc, w.Objs, w.Queries[qi], knn.UnboundedSpec(w.K, knn.VariantKNN))
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		pt := ThroughputPoint{Goroutines: gc, Queries: len(w.Queries), Wall: wall}
		if wall > 0 {
			pt.QPS = float64(pt.Queries) / wall.Seconds()
		}
		if baseQPS == 0 {
			baseQPS = pt.QPS
		}
		if baseQPS > 0 {
			pt.Speedup = pt.QPS / baseQPS
		}
		io := ix.Tracker().Stats()
		pt.PageHits, pt.PageMisses = io.Hits, io.Misses
		points = append(points, pt)
	}
	return points, nil
}

// ThroughputTable renders a sweep as a plain-text table.
func ThroughputTable(title string, points []ThroughputPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%12s %10s %12s %12s %10s %12s %12s\n",
		"goroutines", "queries", "wall", "QPS", "speedup", "page-hits", "page-misses")
	for _, p := range points {
		fmt.Fprintf(&b, "%12d %10d %12s %12.0f %9.2fx %12d %12d\n",
			p.Goroutines, p.Queries, p.Wall.Round(time.Microsecond), p.QPS, p.Speedup,
			p.PageHits, p.PageMisses)
	}
	return b.String()
}
