package silc

import (
	"context"
	"io"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/partition"
	"silc/internal/store"
)

// queryBackend is what the unified Engine needs from an index
// implementation: the generic query surface the kNN family consumes,
// context-attributed interval and path retrieval, and the paged-image
// writer. Both the monolithic core.Index and the sharded partition index
// satisfy it, which is what lets one generic code path answer every query
// on both.
type queryBackend interface {
	core.QueryIndex
	DistanceIntervalCtx(qc *core.QueryContext, u, v graph.VertexID) core.Interval
	PathCtx(qc *core.QueryContext, u, v graph.VertexID) []graph.VertexID
	WritePaged(w io.Writer) (store.ImageInfo, error)
}

// Engine is the package's one index handle: a monolithic or a partitioned
// SILC index, in RAM or paged from disk, behind one request-scoped,
// context-aware query surface. Obtain one with Build, OpenEngine or
// OpenEngineAt (or a ClusterRouter's Engine); the zero value is not usable.
//
// Every entry point takes a context.Context — cancellation and deadlines
// are checked inside the best-first search loop and the progressive
// refiners, so cancelling a request stops the in-flight work within one
// refinement step — validates its arguments at the API edge (typed errors:
// ErrVertexRange, ErrBadK, ErrNilObjects, ErrBadRadius, ErrBadEpsilon), and
// accepts functional options (WithMethod, WithEpsilon, WithMaxDistance,
// WithWorkers, WithExactDistances) in place of the old positional-argument
// combinatorics.
//
// An Engine is read-only and safe for unlimited concurrent use: the buffer
// pool is safe for concurrent readers and per-query statistics live in
// query-owned contexts.
type Engine struct {
	net *Network
	qx  queryBackend
	// sharded is qx when the index is partitioned (nil otherwise): cluster
	// nodes serve it, and its label-table and race counters are exported.
	sharded *partition.Sharded
	// closer releases the file behind an engine OpenEngine opened.
	closer io.Closer
	// pager is set when the engine runs over an on-disk store; it reports
	// the actual read counters.
	pager *store.Pager

	// qcPool recycles query contexts — and, through QueryContext.Scratch,
	// the per-query search arenas that hang off them — so the steady-state
	// query path stops allocating once the pool is warm. qcLive counts
	// contexts currently checked out; it must return to zero when no query
	// is in flight (the cancellation-leak test asserts exactly that).
	qcPool sync.Pool
	qcLive atomic.Int64

	// obs holds the engine's metric aggregates (see metrics.go). Always
	// non-nil on engines built through the package constructors; each
	// query's trace span is folded into it on context release, which is
	// what keeps recording off the per-query allocation budget.
	obs *engineObs
}

// newEngine is the single Engine constructor behind both index kinds; it
// wires the metric aggregates before the first query can run. pager is the
// paged store's (nil in RAM).
func newEngine(net *Network, qx queryBackend, pager *store.Pager) *Engine {
	e := &Engine{net: net, qx: qx, pager: pager}
	e.sharded, _ = qx.(*partition.Sharded)
	e.obs = newEngineObs(e)
	return e
}

// acquireQC checks a query context out of the engine's pool, re-armed for
// ctx with its trace span stamped for entry point op. Contexts carry their
// search scratch (knn arenas, refiner slabs) across queries; ResetForReuse
// rewinds everything else.
func (e *Engine) acquireQC(ctx context.Context, op uint8) *core.QueryContext {
	e.qcLive.Add(1)
	qc, ok := e.qcPool.Get().(*core.QueryContext)
	if ok {
		qc.ResetForReuse(ctx)
	} else {
		qc = core.NewQueryContextFor(ctx)
	}
	e.beginSpan(qc, op)
	return qc
}

// releaseQC folds the finished span into the engine aggregates and returns
// the context to the pool. Every acquire must be paired with exactly one
// release on every exit path — including error returns and cancellation
// (cancelled queries fold their partial span) — or the scratch arena leaks
// and qcLive drifts upward.
func (e *Engine) releaseQC(qc *core.QueryContext) {
	e.obs.fold(qc)
	e.qcLive.Add(-1)
	e.qcPool.Put(qc)
}

// liveQueryContexts reports how many pooled contexts are checked out right
// now. Test hook: after all queries return (even cancelled ones) it is zero.
func (e *Engine) liveQueryContexts() int64 { return e.qcLive.Load() }

// Network returns the indexed network.
func (e *Engine) Network() *Network { return e.net }

// IOStats returns cumulative pool-wide buffer-pool statistics (zeros for
// memory-resident indexes). Per-query traffic is on each Result's Stats;
// summing the per-query counters over a workload reproduces these
// pool-wide totals exactly, because the pool charges each touch to both
// at once. On a sharded paged engine all cell stores
// share one pool and one pager, so every figure here aggregates across all
// cells — there is no per-cell breakdown at this level (WriteMetrics
// exposes per-store series).
func (e *Engine) IOStats() IOStats {
	s := e.qx.Pool().Stats()
	out := IOStats{PageHits: s.Hits, PageMisses: s.Misses}
	if e.pager != nil {
		rs := e.pager.ReadStats()
		out.PageReads = rs.Reads
		out.MeasuredIOTime = rs.Time
	}
	return out
}

// Close releases the file behind an engine OpenEngine opened; it is a
// no-op for in-RAM engines and engines whose reader the caller owns.
// Queries must not run concurrently with or after Close.
func (e *Engine) Close() error {
	if e.closer != nil {
		return e.closer.Close()
	}
	return nil
}

// Stats returns the build statistics of the index behind the engine. An
// opened image reports its block counts; build times are those of the
// in-process build and zero after an open.
func (e *Engine) Stats() IndexStats {
	if e.sharded == nil {
		return IndexStats{BuildStats: e.qx.(*core.Index).Stats()}
	}
	st := e.sharded.Stats()
	return IndexStats{Sharded: &st, BuildStats: BuildStats{
		Vertices:    st.Vertices,
		Edges:       st.Edges,
		TotalBlocks: st.CellBlocks,
		TotalBytes:  st.CellBytes,
		BuildTime:   st.BuildTime,
	}}
}

// NumPartitions returns the cell count P (1 on a monolithic engine).
func (e *Engine) NumPartitions() int {
	if e.sharded == nil {
		return 1
	}
	return e.sharded.NumPartitions()
}

// PartitionOf returns the cell holding vertex v (0 on a monolithic engine).
func (e *Engine) PartitionOf(v VertexID) int {
	if e.sharded == nil {
		return 0
	}
	return e.sharded.CellOf(v)
}

// WritePaged serializes the index in the page-aligned on-disk format that
// OpenEngine reads back on demand, network embedded: one image of
// checksummed pages holding each vertex's quadtree blocks delta+varint
// encoded (conventionally *.silcpg), or, for a partitioned index, the
// partition metadata plus one such image per cell (*.silcspg). It returns
// the layout of the image it wrote; its Total is the byte count. A
// ClusterRouter's engine holds no cell images and cannot write one.
func (e *Engine) WritePaged(w io.Writer) (ImageInfo, error) { return e.qx.WritePaged(w) }

// WriteFile writes the paged image to path atomically: it is fsynced under
// a temp name and renamed into place, so a crash or a failed write leaves
// whatever was at path before, never a torn file.
func (e *Engine) WriteFile(path string) (info ImageInfo, err error) {
	err = store.WriteFileAtomic(path, func(w io.Writer) (err error) {
		info, err = e.WritePaged(w)
		return err
	})
	return info, err
}

// NewRefiner starts progressive refinement for the pair (src, dst).
func (e *Engine) NewRefiner(src, dst VertexID) (*Refiner, error) {
	if err := checkVertex(e.net, "src", src); err != nil {
		return nil, err
	}
	if err := checkVertex(e.net, "dst", dst); err != nil {
		return nil, err
	}
	return &Refiner{r: e.qx.Refine(nil, src, dst), mono: e.sharded == nil}, nil
}

// ResetIOStats zeroes the buffer-pool counters — and, on a disk-backed
// engine, the actual read counters of every registered store with them
// (all cells of a sharded paged engine), so a measurement window's pool
// and read figures describe the same workload. Cache contents stay warm.
// The Prometheus counters (WriteMetrics) are monotone and are deliberately
// NOT reset.
func (e *Engine) ResetIOStats() {
	e.qx.Pool().ResetStats()
	if e.pager != nil {
		e.pager.ResetReadStats()
	}
}

// Distance returns the network distance from u to v by progressive
// refinement: exact by default, and under WithEpsilon(ε) the lower
// bound d of the first interval with δ⁺ ≤ (1+ε)·δ⁻, so that
// d ≤ true ≤ (1+ε)·d. Cancelling ctx stops the refinement and returns
// ctx's error. WithStats captures the query's execution statistics, a
// failed query's included.
func (e *Engine) Distance(ctx context.Context, u, v VertexID, opts ...Option) (float64, error) {
	o, err := resolveOptions(opts)
	if err != nil {
		return 0, err
	}
	if err := checkVertex(e.net, "src", u); err != nil {
		return 0, err
	}
	if err := checkVertex(e.net, "dst", v); err != nil {
		return 0, err
	}
	qc := e.acquireQC(ctx, opDistance)
	defer e.releaseQC(qc)
	d := core.ApproxDistance(e.qx, qc, u, v, o.epsilon)
	if o.statsInto != nil {
		e.fillStats(qc, "DISTANCE", o.statsInto)
	}
	if err := qc.Err(); err != nil {
		return 0, err
	}
	return d, nil
}

// DistanceInterval returns the zero-refinement network-distance interval
// between u and v: a bounded number of lookups, no graph search.
// WithStats captures the query's execution statistics, a failed query's
// included.
func (e *Engine) DistanceInterval(ctx context.Context, u, v VertexID, opts ...Option) (Interval, error) {
	o, err := resolveOptions(opts)
	if err != nil {
		return Interval{}, err
	}
	if err := checkVertex(e.net, "src", u); err != nil {
		return Interval{}, err
	}
	if err := checkVertex(e.net, "dst", v); err != nil {
		return Interval{}, err
	}
	qc := e.acquireQC(ctx, opInterval)
	defer e.releaseQC(qc)
	iv := e.qx.DistanceIntervalCtx(qc, u, v)
	if o.statsInto != nil {
		e.fillStats(qc, "INTERVAL", o.statsInto)
	}
	if err := qc.Err(); err != nil {
		return Interval{}, err
	}
	return iv, nil
}

// ShortestPath retrieves the exact shortest path from u to v, inclusive of
// both endpoints (nil when v is unreachable). Cancelling ctx abandons the
// retrieval and returns ctx's error. WithStats captures the query's
// execution statistics, a failed query's included.
func (e *Engine) ShortestPath(ctx context.Context, u, v VertexID, opts ...Option) ([]VertexID, error) {
	o, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := checkVertex(e.net, "src", u); err != nil {
		return nil, err
	}
	if err := checkVertex(e.net, "dst", v); err != nil {
		return nil, err
	}
	qc := e.acquireQC(ctx, opPath)
	defer e.releaseQC(qc)
	path := e.qx.PathCtx(qc, u, v)
	if o.statsInto != nil {
		e.fillStats(qc, "PATH", o.statsInto)
	}
	if err := qc.Err(); err != nil {
		return nil, err
	}
	return path, nil
}

// IsCloser reports whether u is strictly closer to a than to b by network
// distance, refining both intervals only as far as the comparison requires.
func (e *Engine) IsCloser(ctx context.Context, u, a, b VertexID) (bool, error) {
	if err := checkVertex(e.net, "src", u); err != nil {
		return false, err
	}
	if err := checkVertex(e.net, "a", a); err != nil {
		return false, err
	}
	if err := checkVertex(e.net, "b", b); err != nil {
		return false, err
	}
	qc := e.acquireQC(ctx, opIsCloser)
	defer e.releaseQC(qc)
	ra := e.qx.Refine(qc, u, a)
	rb := e.qx.Refine(qc, u, b)
	for {
		if err := qc.Err(); err != nil {
			return false, err
		}
		ia, ib := ra.Interval(), rb.Interval()
		if ia.Hi < ib.Lo {
			return true, nil
		}
		if ib.Hi <= ia.Lo {
			return false, nil
		}
		// Intervals collide: refine the wider one first; an exact refiner
		// cedes to the other.
		aStuck := ra.Done()
		bStuck := rb.Done()
		switch {
		case aStuck && bStuck:
			return ia.Lo < ib.Lo, nil
		case aStuck:
			rb.Step()
		case bStuck:
			ra.Step()
		case ia.Hi-ia.Lo >= ib.Hi-ib.Lo:
			ra.Step()
		default:
			rb.Step()
		}
	}
}

// Query returns up to k objects of objs nearest to q by network distance.
// Options: WithMethod selects the algorithm (default MethodKNN), WithEpsilon
// relaxes ranking to ε-approximate, WithMaxDistance bounds results to a
// radius (the hybrid kNN∩range query), WithExactDistances refines every
// reported distance to exact. Distances are otherwise refined only as far
// as the ranking requires — exact only where Neighbor.Exact is set.
//
// Cancelling ctx stops the search within one refinement step; the neighbors
// certified so far are returned alongside ctx's error.
func (e *Engine) Query(ctx context.Context, objs *ObjectSet, q VertexID, k int, opts ...Option) (Result, error) {
	o, err := e.checkQuery(objs, q, k, opts)
	if err != nil {
		return Result{}, err
	}
	qc := e.acquireQC(ctx, opKNN)
	defer e.releaseQC(qc)
	return e.search(qc, objs, q, o.spec(k), o)
}

// checkQuery validates the shared (objs, q, k, opts) prefix of the kNN
// entry points.
func (e *Engine) checkQuery(objs *ObjectSet, q VertexID, k int, opts []Option) (queryOptions, error) {
	o, err := resolveOptions(opts)
	if err != nil {
		return o, err
	}
	if err := checkObjects(objs); err != nil {
		return o, err
	}
	if err := checkVertex(e.net, "q", q); err != nil {
		return o, err
	}
	if err := checkK(k); err != nil {
		return o, err
	}
	return o, nil
}

// search answers one query on qc — the single code path behind Query,
// QueryBatch and WithinDistance, on both engines: the search spec selects,
// o.method dispatches the INE/IER baselines, and the result is stamped with
// the snapshot version, refined to exact distances when o asks, and given
// the context's I/O and span counters, a failed query's too.
func (e *Engine) search(qc *core.QueryContext, objs *ObjectSet, q VertexID, spec knn.Spec, o queryOptions) (Result, error) {
	var raw knn.Result
	switch o.method {
	case MethodINE:
		raw = knn.INESpec(e.qx, qc, objs.objs, q, spec)
	case MethodIER:
		raw = knn.IERSpec(e.qx, qc, objs.objs, q, spec)
	default:
		raw = knn.SearchSpec(e.qx, qc, objs.objs, q, spec)
	}
	res := convertResult(raw)
	res.Stats.SnapshotVersion = objs.version
	err := raw.Err
	if err == nil && o.exact {
		err = e.exactify(qc, q, &res)
	}
	e.foldIO(qc, &res.Stats)
	return res, err
}

// exactify refines every reported neighbor's distance to exact, charging
// the work to the query's own context.
func (e *Engine) exactify(qc *core.QueryContext, q VertexID, res *Result) error {
	// A backend on which every refinement is a round trip (a cluster router)
	// is told of all of them at once and races them in one batch per cell.
	if h, ok := e.qx.(core.ExpandHinter); ok && h.WantsExpandHints() {
		var dsts []graph.VertexID
		for _, n := range res.Neighbors {
			if !n.Exact {
				dsts = append(dsts, n.Vertex)
			}
		}
		if len(dsts) > 0 {
			h.HintRefine(qc, q, dsts)
		}
	}
	for i := range res.Neighbors {
		n := &res.Neighbors[i]
		if n.Exact {
			continue
		}
		d := core.ExactDistance(e.qx, qc, q, n.Vertex)
		if err := qc.Err(); err != nil {
			return err
		}
		n.Dist = d
		n.Interval = Interval{Lo: d, Hi: d}
		n.Exact = true
	}
	return nil
}

// foldIO re-reads the query context's accumulated buffer-pool traffic and
// trace span into the result statistics, covering follow-up work
// (exactification) performed after the algorithm's own clock stopped.
func (e *Engine) foldIO(qc *core.QueryContext, s *QueryStats) {
	s.PageHits = qc.IO.Hits
	s.PageMisses = qc.IO.Misses
	s.PageReads = qc.IO.Reads
	s.Evictions = qc.IO.Evictions
	s.BlocksDecoded = qc.IO.BlocksDecoded
	s.HeapPushes = qc.Span.HeapPushes
	s.GatewayRoutes = qc.Span.GatewayRoutes
	if qc.Span.Timed {
		s.FilterTime = time.Duration(qc.Span.FilterNanos)
		if s.CPUTime > s.FilterTime {
			s.RefineTime = s.CPUTime - s.FilterTime
		}
	}
}

// fillStats builds QueryStats for the point-query entry points (Distance,
// DistanceInterval, ShortestPath), which have no knn.Stats to convert: the
// refinement count and clock come from the trace span.
func (e *Engine) fillStats(qc *core.QueryContext, method string, s *QueryStats) {
	*s = QueryStats{
		Method:      method,
		Refinements: int(qc.Span.Refinements),
		CPUTime:     time.Since(qc.Span.Begin),
	}
	e.foldIO(qc, s)
}

// WithinDistance returns every object whose network distance from q is at
// most radius — the network-distance range query. Results are unordered;
// intervals are refined exactly far enough to decide membership, so Dist is
// exact only where Exact is set (WithExactDistances refines the rest).
//
// WithEpsilon(ε) makes the radius distance-bounded: an object is in once
// δ⁻ ≤ radius and δ⁺ ≤ (1+ε)·radius, and out once δ⁻ > radius, so the
// answer holds every object within radius and none beyond (1+ε)·radius.
func (e *Engine) WithinDistance(ctx context.Context, objs *ObjectSet, q VertexID, radius float64, opts ...Option) (Result, error) {
	o, err := resolveOptions(opts)
	if err != nil {
		return Result{}, err
	}
	if err := checkObjects(objs); err != nil {
		return Result{}, err
	}
	if err := checkVertex(e.net, "q", q); err != nil {
		return Result{}, err
	}
	if err := checkRadius(radius); err != nil {
		return Result{}, err
	}
	qc := e.acquireQC(ctx, opRange)
	defer e.releaseQC(qc)
	// Of the options, WithEpsilon and WithExactDistances change a range answer.
	spec := knn.Spec{K: objs.Len(), Variant: knn.VariantRange, Epsilon: o.epsilon, MaxDist: radius}
	return e.search(qc, objs, q, spec, queryOptions{exact: o.exact})
}

// Neighbors streams the objects of objs in increasing network distance from
// q — the paper's incremental "distance browsing" as a Go iterator. The
// (k+1)st neighbor costs only incremental search; breaking out of the range
// loop abandons the remaining work, and cancelling ctx ends the stream with
// ctx's error within one refinement step.
//
// Options: WithEpsilon streams ε-approximate neighbors (distances then
// carry their certifying interval, Exact false, and are NOT post-refined);
// WithMaxDistance ends the stream at the distance bound. Without epsilon
// every yielded distance is refined to exact. Cursor-style consumers that
// interleave Next with other work wrap the sequence in iter.Pull2.
//
// A yielded non-nil error (argument validation, or ctx cancellation) is the
// final element of the sequence.
func (e *Engine) Neighbors(ctx context.Context, objs *ObjectSet, q VertexID, opts ...Option) iter.Seq2[Neighbor, error] {
	return func(yield func(Neighbor, error) bool) {
		o, err := resolveOptions(opts)
		if err == nil {
			if err = checkObjects(objs); err == nil {
				err = checkVertex(e.net, "q", q)
			}
		}
		if err != nil {
			yield(Neighbor{}, err)
			return
		}
		// The context is released when the iterator ends — whether the
		// stream drains, the consumer breaks, or cancellation cuts it short.
		qc := e.acquireQC(ctx, opNeighbors)
		defer e.releaseQC(qc)
		br := knn.NewBrowserSpec(e.qx, qc, objs.objs, q, knn.Spec{Epsilon: o.epsilon, MaxDist: o.maxDist})
		flushStats := func() {
			if o.statsInto != nil {
				*o.statsInto = convertStats(br.Stats())
				o.statsInto.SnapshotVersion = objs.version
				e.foldIO(qc, o.statsInto)
			}
		}
		defer flushStats()
		for {
			raw, ok := br.Next()
			if !ok {
				if err := br.Err(); err != nil {
					yield(Neighbor{}, err)
				}
				return
			}
			n := Neighbor{
				ID:       raw.Object.ID,
				Vertex:   raw.Object.Vertex,
				Dist:     raw.Dist,
				Interval: raw.Interval,
				Exact:    raw.Exact,
			}
			if !n.Exact && o.epsilon == 0 {
				// Exact-mode browsing refines each reported neighbor fully,
				// charging the cursor's own context.
				d := core.ExactDistance(e.qx, qc, q, n.Vertex)
				if err := qc.Err(); err != nil {
					yield(Neighbor{}, err)
					return
				}
				n.Dist, n.Interval, n.Exact = d, Interval{Lo: d, Hi: d}, true
			}
			if !yield(n, nil) {
				return
			}
		}
	}
}
