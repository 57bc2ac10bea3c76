package silc

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// BatchStats aggregates one QueryBatch execution.
type BatchStats struct {
	// Queries is the number of queries actually ANSWERED — slots holding a
	// real Result. It excludes failed and skipped slots, so throughput
	// derived from it is honest even for partial batches.
	Queries int
	// Failed counts queries abandoned by a per-query fault (a storage
	// error, say); their slots hold zero Results.
	Failed int
	// Skipped counts queries abandoned unanswered by cancellation — never
	// started, or cancelled mid-flight; their slots hold zero Results.
	Skipped int
	// Workers is the worker-pool size the batch ran with.
	Workers int
	// Wall is the end-to-end elapsed time of the batch.
	Wall time.Duration
	// QPS is Queries (answered only) divided by Wall.
	QPS float64
	// TotalCPU sums the per-query computation times across workers; on a
	// multi-core machine it exceeds Wall when the pool actually runs in
	// parallel.
	TotalCPU time.Duration
	// PageHits / PageMisses sum the per-query buffer-pool traffic
	// (disk-backed indexes; zeros otherwise).
	PageHits   int64
	PageMisses int64
}

// BatchResult is the outcome of QueryBatch: one Result per query vertex, in
// input order, plus aggregate statistics.
type BatchResult struct {
	Results []Result
	Stats   BatchStats
}

// QueryBatch answers one kNN query per vertex in queries over a shared
// object set, fanned out over a bounded worker pool (WithWorkers; default
// GOMAXPROCS). The pool is bounded regardless of batch size: a batch of a
// million queries still runs at most workers queries at a time. Every
// index — including disk-backed ones — supports this: queries share the
// one buffer pool and each carries its own statistics context, so
// Results[i].Stats reports exactly query i's traffic. Results are in input
// order. WithMethod, WithEpsilon, WithMaxDistance, and WithExactDistances
// apply to every query in the batch.
//
// All query vertices are validated up front. Cancelling ctx stops the
// in-flight queries within one refinement step and abandons the unstarted
// remainder; the partial BatchResult is returned alongside ctx's error
// (unfinished slots hold zero Results). A per-query failure that is not a
// cancellation — a storage fault on a disk-backed index, say — does not
// abandon the batch: the failed query's slot stays zero, the rest still
// run, and the first such error is returned alongside the results.
func (e *Engine) QueryBatch(ctx context.Context, objs *ObjectSet, queries []VertexID, k int, opts ...Option) (BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o, err := resolveOptions(opts)
	if err != nil {
		return BatchResult{}, err
	}
	if err := checkObjects(objs); err != nil {
		return BatchResult{}, err
	}
	if err := checkK(k); err != nil {
		return BatchResult{}, err
	}
	n := e.net.NumVertices()
	for i, q := range queries {
		if q < 0 || int(q) >= n {
			return BatchResult{}, fmt.Errorf("%w: queries[%d]=%d, want [0,%d)", ErrVertexRange, i, q, n)
		}
	}

	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	spec := o.spec(k)
	start := time.Now()
	results := make([]Result, len(queries))
	var next atomic.Int64
	var answered, failed atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(queries)) {
					return
				}
				qc := e.acquireQC(ctx, opBatch)
				res, err := e.search(qc, objs, queries[i], spec, o)
				e.releaseQC(qc)
				if err != nil {
					if ctx.Err() != nil {
						return // cancelled: leave this and later slots zero
					}
					// A failure local to this query — a storage fault, not
					// a cancellation — must not make the worker abandon the
					// rest of the batch (and with it, silently drop queries
					// no other worker will ever claim): record the first
					// one, leave this slot zero, and keep pulling work.
					failed.Add(1)
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("queries[%d]=%d: %w", i, queries[i], err)
					}
					mu.Unlock()
					continue
				}
				results[i] = res
				answered.Add(1)
			}
		}()
	}
	wg.Wait()

	// Answered/failed/skipped must add up to the request: QPS derived from
	// the answered count stays honest when cancellation abandoned slots or
	// per-query faults zeroed them.
	agg := BatchStats{
		Queries: int(answered.Load()),
		Failed:  int(failed.Load()),
		Workers: workers,
		Wall:    time.Since(start),
	}
	agg.Skipped = len(queries) - agg.Queries - agg.Failed
	for i := range results {
		s := &results[i].Stats
		agg.TotalCPU += s.CPUTime
		agg.PageHits += s.PageHits
		agg.PageMisses += s.PageMisses
	}
	if agg.Wall > 0 {
		agg.QPS = float64(agg.Queries) / agg.Wall.Seconds()
	}
	err = ctx.Err()
	if err == nil {
		err = firstErr // wg.Wait() ordered every worker's write before this read
	}
	return BatchResult{Results: results, Stats: agg}, err
}
