// Package core implements the SILC framework, the paper's primary
// contribution: precomputed all-pairs shortest paths stored as one
// shortest-path quadtree per source vertex, queried through network-distance
// intervals that refine progressively toward exact distances and paths.
//
// Building runs one Dijkstra per vertex (parallelized over sources — the
// paper: "easily parallelizable, data parallelism") and encodes each
// shortest-path tree as colored Morton blocks carrying (λ⁻, λ⁺) ratio
// bounds. A query never touches the graph again: a block lookup yields an
// interval, one refinement advances one hop along the encoded path, and
// full refinement reproduces the exact shortest path in size-of-path steps.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"silc/internal/diskio"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/obs"
	"silc/internal/quadtree"
	"silc/internal/store"
)

// Interval is a closed network-distance interval [Lo, Hi] guaranteed to
// contain the true network distance.
type Interval struct {
	Lo, Hi float64
}

// Exact reports whether the interval has collapsed to a point (within
// floating-point noise).
func (iv Interval) Exact() bool { return iv.Hi-iv.Lo <= exactEps*(1+iv.Hi) }

// intersect tightens iv by o; both must contain the true value, so the
// intersection is non-empty up to floating-point noise, which is clamped.
func (iv Interval) intersect(o Interval) Interval {
	out := Interval{Lo: math.Max(iv.Lo, o.Lo), Hi: math.Min(iv.Hi, o.Hi)}
	if out.Lo > out.Hi {
		mid := (out.Lo + out.Hi) / 2
		out.Lo, out.Hi = mid, mid
	}
	return out
}

const exactEps = 1e-12

// BuildOptions configures Build.
type BuildOptions struct {
	// Parallelism is the number of concurrent build workers; 0 means
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// AllowUnreachable accepts networks that are not strongly connected:
	// unreachable destinations are colored out-of-range instead of failing
	// the build, and queries against them report the interval [+Inf, +Inf]
	// (Distance +Inf, Path nil). The partition subsystem builds its per-cell
	// indexes this way — a cell's induced subgraph need not be strongly
	// connected even when the full network is; cross-cell routing restores
	// reachability through the boundary closure.
	AllowUnreachable bool
}

// BuildStats describes a completed build.
type BuildStats struct {
	Vertices    int
	Edges       int
	TotalBlocks int64 // Morton blocks across all vertices (the paper's unit)
	TotalBytes  int64 // TotalBlocks * 16 in the disk layout
	MinBlocks   int   // smallest per-vertex quadtree
	MaxBlocks   int   // largest per-vertex quadtree
	BuildTime   time.Duration
}

// BlocksPerVertex returns the mean quadtree size.
func (s BuildStats) BlocksPerVertex() float64 {
	if s.Vertices == 0 {
		return 0
	}
	return float64(s.TotalBlocks) / float64(s.Vertices)
}

// QueryContext carries the per-query mutable state of one logical query:
// the buffer-pool traffic counter, the cancellation signal, and whatever
// else a query accumulates. Each context is owned by exactly one goroutine;
// the index itself stays read-only on the query path, which is what makes
// every Index — including disk-backed ones — safe for unlimited concurrent
// readers. A nil *QueryContext is valid everywhere and means "untracked,
// uncancellable": the shared pool is still charged, but no per-query
// attribution happens.
type QueryContext struct {
	// IO counts the buffer-pool traffic this query caused.
	IO diskio.Stats
	// Span is the per-query trace record: refinement/lookup/heap-push
	// counters incremented inline by the query algorithms and folded
	// into engine-level aggregates when the context is released. Like
	// IO it is zeroed (not preserved) by ResetForReuse; the engine
	// layer stamps Begin/Op/Timed right after acquiring a context.
	Span obs.Span
	// Route is a per-query cache slot owned by whichever index implementation
	// the query runs against. The partition subsystem stores its per-source
	// gateway closure here, so one kNN query amortizes the boundary-distance
	// work across all the objects it inspects. Monolithic indexes leave it
	// nil. The slot survives ResetForReuse: implementations detect the stale
	// key and rebuild in place, reusing the allocation.
	Route any
	// Scratch is a per-query scratch slot owned by the query algorithm layer
	// (internal/knn stores its search arena here). Like Route it survives
	// ResetForReuse so a pooled context carries its warmed-up scratch from
	// query to query.
	Scratch any
	// ctx carries the request's cancellation/deadline signal; nil means the
	// query is uncancellable (background work, legacy call sites).
	ctx context.Context
	// ioErr is the sticky storage-level failure of this query (a corrupt or
	// unreadable page on a disk-backed index). Once set, Err reports it and
	// every query algorithm winds down within one step, exactly like a
	// cancellation.
	ioErr error
	// refiners is the per-query refiner slab: NewRefinerCtx hands out slab
	// slots instead of heap-allocating one Refiner per inspected object, and
	// ResetForReuse recycles the whole slab at once. Refiners stay valid for
	// the lifetime of the query they were created under.
	refiners refinerSlab
	// gen counts ResetForReuse calls. Route/Scratch owners compare it against
	// the generation they last saw to learn that a query boundary passed and
	// their own per-query sub-allocations (e.g. the partition layer's
	// route-refiner slab) are safe to recycle.
	gen uint64
	// source is the quadtree region bounds read on a paged index: vertex v's
	// tree in index ix, decoded by the query's first bound from v and only
	// re-touched by the rest (Index.sourceTree). The key names the index
	// because the cells of a sharded index share one context. ResetForReuse
	// drops the key and keeps the tree's block storage.
	source struct {
		ix   *Index
		v    graph.VertexID
		tree quadtree.Tree
	}
}

// Gen returns the context's reuse generation; it changes on every
// ResetForReuse.
func (qc *QueryContext) Gen() uint64 { return qc.gen }

// refinerSlab is a free-list of heap-stable *Refiner. Pointers are handed
// out in order and recycled en masse by reset, so a pooled QueryContext
// allocates refiners only while growing past its high-water mark.
type refinerSlab struct {
	items []*Refiner
	next  int
}

func (s *refinerSlab) get() *Refiner {
	if s.next == len(s.items) {
		s.items = append(s.items, new(Refiner))
	}
	r := s.items[s.next]
	s.next++
	return r
}

func (s *refinerSlab) reset() {
	for _, r := range s.items[:s.next] {
		*r = Refiner{} // drop ix/qc references so a pooled slab pins nothing
	}
	s.next = 0
}

// ResetForReuse returns the context to its fresh state while keeping every
// reusable allocation (the refiner slab and the Route/Scratch arenas), then
// binds it to ctx. It must only be called once no refiner, iterator, or
// cursor created under the previous query is live — the Engine layer's
// query-context pool guarantees that by recycling only after the query's
// last exit point.
func (qc *QueryContext) ResetForReuse(ctx context.Context) {
	qc.IO = diskio.Stats{}
	qc.Span = obs.Span{}
	qc.ioErr = nil
	qc.refiners.reset()
	qc.source.ix = nil
	qc.gen++
	qc.ctx = nil
	if ctx != nil && ctx != context.Background() {
		qc.ctx = ctx
	}
}

// NewQueryContext returns a fresh, uncancellable per-query context.
func NewQueryContext() *QueryContext { return &QueryContext{} }

// NewQueryContextFor returns a per-query context bound to ctx: the query
// algorithms check Err at every refinement step, so cancelling ctx stops an
// in-flight query within one step. context.Background() (or nil) yields an
// uncancellable context identical to NewQueryContext.
func NewQueryContextFor(ctx context.Context) *QueryContext {
	qc := &QueryContext{}
	if ctx != nil && ctx != context.Background() {
		qc.ctx = ctx
	}
	return qc
}

// Context returns the request context the query is bound to —
// context.Background for an unbound (or nil) query context. Remote index
// backends use it to scope their RPCs to the request's deadline.
func (qc *QueryContext) Context() context.Context {
	if qc == nil || qc.ctx == nil {
		return context.Background()
	}
	return qc.ctx
}

// Err reports why the query must stop — a recorded storage failure first,
// then the bound context's cancellation error — or nil while the query may
// continue. It is nil-safe: a nil QueryContext never cancels.
func (qc *QueryContext) Err() error {
	if qc == nil {
		return nil
	}
	if qc.ioErr != nil {
		return qc.ioErr
	}
	if qc.ctx == nil {
		return nil
	}
	return qc.ctx.Err()
}

// Fail records a storage-level failure (the first one wins). Queries that
// run without a context have no error channel, so a nil receiver panics
// with the error instead of silently returning wrong answers from a corrupt
// store.
func (qc *QueryContext) Fail(err error) {
	if qc == nil {
		panic(err)
	}
	if qc.ioErr == nil {
		qc.ioErr = err
	}
}

// Failed reports whether a storage-level failure has been recorded.
func (qc *QueryContext) Failed() bool { return qc != nil && qc.ioErr != nil }

// ioCounter returns the per-query counter to charge, nil when untracked.
func (qc *QueryContext) ioCounter() *diskio.Stats {
	if qc == nil {
		return nil
	}
	return &qc.IO
}

// Index is a SILC index over one spatial network. The query path never
// mutates the Index: per-query state lives in a QueryContext and the
// buffer pool is one locked LRU, so any number of goroutines may query one
// shared Index concurrently.
type Index struct {
	g *graph.Network
	// Exactly one of trees/src is set: trees holds the memory-resident
	// quadtrees, src pages them in lazily from a disk store, and g is then
	// the store's network.
	trees []quadtree.Tree // indexed by source vertex; by value so the
	// per-lookup header load walks one contiguous array instead of chasing
	// a pointer per tree
	src     *store.Store
	lenient bool // AllowUnreachable: misses mean unreachable, not corrupt
	stats   BuildStats
}

// PagedConfig assembles a disk-backed Index from an opened paged store.
// Only Source is read: the store is the index's network, buffer pool,
// leniency and block statistics. The other fields are ignored and stay
// only because the benchmark module sets them (ROADMAP 1(i)).
type PagedConfig struct {
	Source *store.Store

	Graph       *graph.Network
	Tracker     *diskio.Pool
	Radius      float64
	Lenient     bool
	Compression store.Compression
	Stats       BuildStats
}

// NewPagedIndex returns an Index whose quadtrees live on disk behind
// cfg.Source, over the network embedded in the store's image — the one
// adjacency list the image's block colors index. It answers exactly the
// same query surface as a built index; storage failures surface through
// QueryContext.Err (or panic on context-free calls). Its statistics are the
// image's block counts, with no build time.
func NewPagedIndex(cfg PagedConfig) *Index {
	st := cfg.Source
	g := st.Graph()
	total, minBlocks, maxBlocks := st.BlockStats()
	return &Index{
		g:       g,
		src:     st,
		lenient: st.Lenient(),
		stats: BuildStats{
			Vertices:    g.NumVertices(),
			Edges:       g.NumEdges(),
			TotalBlocks: total,
			TotalBytes:  total * quadtree.EncodedSizeBytes,
			MinBlocks:   minBlocks,
			MaxBlocks:   maxBlocks,
		},
	}
}

// Tree resolves v's shortest-path quadtree from memory or, decoded anew,
// from the paged source, charging page traffic to qc and recording source
// failures on it. The tree is read-only.
func (ix *Index) Tree(qc *QueryContext, v graph.VertexID) (*quadtree.Tree, bool) {
	if ix.src == nil {
		return &ix.trees[v], true
	}
	t, err := ix.src.Tree(qc.ioCounter(), v)
	if err != nil {
		qc.Fail(err) // panics when qc is nil: no error channel
		return nil, false
	}
	return t, true
}

// Network returns the indexed network.
func (ix *Index) Network() *graph.Network { return ix.g }

// Stats returns the build statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// Pool returns the paged store's buffer pool, or nil for in-memory indexes.
func (ix *Index) Pool() *diskio.Pool {
	if ix.src == nil {
		return nil
	}
	return ix.src.Pager().Pool()
}

// lookup finds the block of tree[u] containing dst's cell; a paged source
// answers it with one source lookup, charging the page traffic to qc's
// counter (untracked when qc is nil). A false return with qc.Failed() set
// means the paged store failed, not that dst is uncovered.
func (ix *Index) lookup(qc *QueryContext, u, dst graph.VertexID) (quadtree.Block, bool) {
	if ix.src == nil {
		t := &ix.trees[u]
		i, ok := t.FindIndex(ix.g.Code(dst))
		if !ok {
			return quadtree.Block{}, false
		}
		return t.Blocks[i], true
	}
	return ix.pagedLookup(qc, u, dst)
}

// pagedLookup is lookup's paged branch, kept out of line so the in-RAM
// branch — the hot path of every resident index — stays a small frame.
func (ix *Index) pagedLookup(qc *QueryContext, u, dst graph.VertexID) (quadtree.Block, bool) {
	b, ok, err := ix.src.Lookup(qc.ioCounter(), u, ix.g.Code(dst))
	if err != nil {
		qc.Fail(err) // panics when qc is nil: no error channel
		return quadtree.Block{}, false
	}
	return b, ok
}

// DistanceIntervalCtx returns the zero-refinement network-distance interval
// between u and v: one block lookup in u's quadtree, charged to qc.
func (ix *Index) DistanceIntervalCtx(qc *QueryContext, u, v graph.VertexID) Interval {
	if u == v {
		return Interval{}
	}
	b, ok := ix.lookup(qc, u, v)
	if !ok {
		if qc.Failed() {
			// Storage failure: the error is on qc; [0, +Inf) stays true.
			return Interval{Lo: 0, Hi: math.Inf(1)}
		}
		iv, _ := ix.missInterval(qc, u, v)
		return iv
	}
	e := ix.g.Euclid(u, v)
	return Interval{Lo: float64(b.LamLo) * e, Hi: float64(b.LamHi) * e}
}

// missInterval handles a lookup miss of v in u's quadtree: on a lenient
// (AllowUnreachable) index a miss means the destination is unreachable, so
// the interval is the exact point [+Inf, +Inf] and ok is true. On a strict
// index a miss means the index is corrupt: the error goes to qc (a panic
// when qc is nil: no error channel), ok is false and the interval is
// [0, +Inf), still true.
func (ix *Index) missInterval(qc *QueryContext, u, v graph.VertexID) (iv Interval, ok bool) {
	if ix.lenient {
		return Interval{Lo: math.Inf(1), Hi: math.Inf(1)}, true
	}
	notCovered(qc, u, v)
	return Interval{Lo: 0, Hi: math.Inf(1)}, false
}

// notCovered records on qc (a panic when qc is nil) that u's quadtree has
// no block for v where it must have one.
func notCovered(qc *QueryContext, u, v graph.VertexID) {
	qc.Fail(fmt.Errorf("core: vertex %d not covered by quadtree of %d: %w", v, u, store.ErrCorrupt))
}

// walkTooLong records on qc (a panic when qc is nil) that a walk from u to
// v went hops hops without arriving — as many as the longest shortest path
// has, n−1, so the blocks it followed are corrupt.
func walkTooLong(qc *QueryContext, u, v graph.VertexID, hops int) {
	qc.Fail(fmt.Errorf("core: walk from %d to %d passed %d hops without arriving: %w", u, v, hops, store.ErrCorrupt))
}

// NextHopCtx returns the first vertex after u on the shortest path u→v,
// charging the lookup to qc. It returns graph.NoVertex when v is
// unreachable (a lenient index), and when the lookup fails (the error is
// on qc).
func (ix *Index) NextHopCtx(qc *QueryContext, u, v graph.VertexID) graph.VertexID {
	if u == v {
		return v
	}
	b, ok := ix.lookup(qc, u, v)
	if !ok {
		if !qc.Failed() {
			ix.missInterval(qc, u, v) // fails qc when the index is strict
		}
		return graph.NoVertex
	}
	targets, _ := ix.g.Neighbors(u)
	return targets[b.Color]
}

// PathCtx retrieves the exact shortest path from u to v (inclusive), one
// block lookup per hop — the paper's "entire shortest path in size-of-path
// steps" — charging every lookup to qc. It returns nil when v is
// unreachable (a lenient index), and when the walk fails: a failed lookup,
// or n−1 hops without reaching v (the error is on qc).
func (ix *Index) PathCtx(qc *QueryContext, u, v graph.VertexID) []graph.VertexID {
	path := []graph.VertexID{u}
	for cur := u; cur != v; {
		if hops := len(path) - 1; hops == ix.g.NumVertices()-1 {
			walkTooLong(qc, u, v, hops)
			return nil
		}
		cur = ix.NextHopCtx(qc, cur, v)
		if cur == graph.NoVertex {
			return nil
		}
		path = append(path, cur)
	}
	return path
}

// DistanceCtx fully refines (u, v) through ExactDistance and returns the
// exact network distance, +Inf when v is unreachable (a lenient index).
func (ix *Index) DistanceCtx(qc *QueryContext, u, v graph.VertexID) float64 {
	return ExactDistance(ix, qc, u, v)
}

// RegionLowerBoundCtx returns a lower bound on the network distance from q
// to any vertex whose Morton code lies in cell, using q's quadtree only (no
// graph access). This is the DISTANCE_INTERVAL(object, Region) primitive the
// kNN algorithm applies to blocks of the object index — every one of which
// is a quadtree cell. On a memory-resident index the walk touches no paged
// blocks; a disk-backed index walks the tree of q that qc holds, decoded by
// the query's first bound from q (sourceTree).
func (ix *Index) RegionLowerBoundCtx(qc *QueryContext, q graph.VertexID, cell geom.Cell) float64 {
	// The source lies in no block of its own quadtree, so the tree cannot
	// tell that q itself is in the cell.
	if cell.ContainsCode(ix.g.Code(q)) {
		return 0
	}
	t, ok := ix.sourceTree(qc, q)
	if !ok {
		return 0 // storage failure recorded on qc; 0 is a valid lower bound
	}
	return t.CellLowerBound(ix.g.Point(q), cell)
}

// sourceTree is Tree for region bounds, which a query asks of one source
// many times: on a paged index the tree qc holds is decoded by the query's
// first bound from q and only touched by the rest, so the pool sees the
// same page touches as a decode per bound would cause.
func (ix *Index) sourceTree(qc *QueryContext, q graph.VertexID) (*quadtree.Tree, bool) {
	if ix.src == nil || qc == nil {
		return ix.Tree(qc, q)
	}
	src := &qc.source
	var err error
	if src.ix == ix && src.v == q {
		err = ix.src.Touch(&qc.IO, q)
	} else {
		src.ix = nil // a failed decode leaves the tree unspecified
		if err = ix.src.DecodeTree(&qc.IO, q, &src.tree); err == nil {
			src.ix, src.v = ix, q
		}
	}
	if err != nil {
		qc.Fail(err)
		return nil, false
	}
	return &src.tree, true
}

// Refiner carries the progressive-refinement state for one (src, dst) pair:
// the last committed intermediate vertex, the exact distance accumulated to
// it, and the current interval. Each Step advances one hop (one block
// lookup) and tightens the interval monotonically; after at most
// path-length steps the interval is exact.
type Refiner struct {
	ix       *Index
	qc       *QueryContext
	src, dst graph.VertexID
	cur      graph.VertexID
	acc      float64
	color    int32 // color of the block containing dst in cur's quadtree
	iv       Interval
	steps    int
	done     bool
	failed   bool // storage failure recorded on qc; no further stepping
}

// NewRefinerCtx computes the zero-refinement interval and returns the
// refinement cursor for the pair. Every block lookup the cursor performs is
// charged to qc (nil = untracked). With a non-nil qc the cursor comes from
// the context's refiner slab and stays valid until the context is recycled
// (ResetForReuse); context-free callers get a heap allocation.
func (ix *Index) NewRefinerCtx(qc *QueryContext, src, dst graph.VertexID) *Refiner {
	var r *Refiner
	if qc != nil {
		r = qc.refiners.get()
	} else {
		r = new(Refiner)
	}
	*r = Refiner{ix: ix, qc: qc, src: src, dst: dst, cur: src}
	if src == dst {
		r.done = true
		return r
	}
	b, ok := ix.lookup(qc, src, dst)
	if !ok {
		if qc.Failed() {
			r.iv = Interval{Lo: 0, Hi: math.Inf(1)}
			r.failed = true
			return r
		}
		// Unreachable on a lenient index: done at the exact [+Inf, +Inf].
		r.iv, r.done = ix.missInterval(qc, src, dst)
		r.failed = !r.done
		return r
	}
	e := ix.g.Euclid(src, dst)
	r.color = b.Color
	r.iv = Interval{Lo: float64(b.LamLo) * e, Hi: float64(b.LamHi) * e}
	return r
}

// Interval returns the current network-distance interval.
func (r *Refiner) Interval() Interval { return r.iv }

// Done reports whether the interval is exact (destination reached).
func (r *Refiner) Done() bool { return r.done }

// Steps returns the number of refinement operations performed.
func (r *Refiner) Steps() int { return r.steps }

// Via returns the last committed intermediate vertex and the exact network
// distance from the source to it — the paper's observation that SILC always
// expresses the distance as exact-prefix + interval-suffix.
func (r *Refiner) Via() (graph.VertexID, float64) { return r.cur, r.acc }

// Step performs one refinement: advance one hop along the encoded shortest
// path and tighten the interval. It returns false once the interval is
// exact, and when the walk fails: a failed lookup, a lookup miss on a
// strict index, or n−1 hops without reaching the destination —
// the longest a shortest path can be. The failure is recorded on the
// refiner's query context (a panic when it has none).
func (r *Refiner) Step() bool {
	if r.done || r.failed {
		return false
	}
	r.steps++
	if r.qc != nil {
		r.qc.Span.Refinements++
	}
	g := r.ix.g
	targets, weights := g.Neighbors(r.cur)
	next := targets[r.color]
	r.acc += weights[r.color]
	r.cur = next
	if next == r.dst {
		r.iv = r.iv.intersect(Interval{Lo: r.acc, Hi: r.acc})
		r.done = true
		return false
	}
	if r.steps >= g.NumVertices()-1 {
		walkTooLong(r.qc, r.src, r.dst, r.steps)
		r.failed = true
		return false
	}
	b, ok := r.ix.lookup(r.qc, next, r.dst)
	if !ok {
		if !r.qc.Failed() {
			// The destination is within reach of every vertex on the way.
			notCovered(r.qc, next, r.dst)
		}
		r.failed = true // error is on r.qc
		return false
	}
	r.color = b.Color
	e := g.Euclid(next, r.dst)
	r.iv = r.iv.intersect(Interval{
		Lo: r.acc + float64(b.LamLo)*e,
		Hi: r.acc + float64(b.LamHi)*e,
	})
	return true
}
