// Package knn implements the paper's k-nearest-neighbor algorithms over a
// SILC index: the non-incremental best-first kNN (paper §4) and its variants
// INN, kNN-I, and kNN-M, plus the two comparison baselines from Papadias et
// al. (VLDB 2003) — INE (incremental network expansion, i.e. Dijkstra with a
// result buffer) and IER (incremental Euclidean restriction).
//
// All algorithms consume the same inputs — a core.QueryIndex (the monolithic
// SILC index or the sharded partition index), an object set S in a PMR
// quadtree, a query vertex, and k — and report uniform statistics (queue
// sizes, refinement counts, buffer-pool traffic) so the paper's evaluation
// can be regenerated measure for measure.
package knn

import (
	"math"
	"time"

	"silc/internal/core"
	"silc/internal/diskio"
	"silc/internal/graph"
	"silc/internal/pmr"
)

// Objects is the query set S: a PMR quadtree plus the vertex->objects map
// the network-expansion baseline needs.
// Internally every structure — the quadtree, the vertex map, the search
// engines' state arrays — works in DENSE slot indices 0..Len-1, so the
// algorithms can index arrays by object id regardless of how the set was
// built. Sets built by NewObjectsWithIDs additionally carry caller-assigned
// stable ids, applied to an object only at the reporting boundary
// (resultAt/Label), so Neighbor.Object.ID is always the caller's id.
type Objects struct {
	tree *pmr.Tree
	objs []pmr.Object
	at   map[graph.VertexID][]int32
	// labels maps a dense slot to its public id; nil means identity (the
	// NewObjects fast path stays a bare slice load everywhere).
	labels []int32
	// byID is the reverse map, public id -> dense slot; nil for dense sets.
	byID map[int32]int32
}

// NewObjects builds an object set from network vertices. Object IDs are
// dense in input order. Multiple objects may share a vertex.
func NewObjects(g *graph.Network, vertices []graph.VertexID) *Objects {
	s := &Objects{
		tree: pmr.FromVertices(g, vertices, 0),
		at:   make(map[graph.VertexID][]int32, len(vertices)),
	}
	s.objs = make([]pmr.Object, len(vertices))
	for i, v := range vertices {
		s.objs[i] = pmr.Object{ID: int32(i), Vertex: v, Pos: g.Point(v)}
		s.at[v] = append(s.at[v], int32(i))
	}
	return s
}

// NewObjectsWithIDs builds an object set whose objects carry caller-assigned
// stable ids (not necessarily dense): the live object store's snapshots keep
// their ids across versions so Remove(id)/Move(id) stay meaningful against
// query results. ids and vertices are parallel; ids must be distinct.
// Multiple objects may share a vertex. An empty set is valid (queries over
// it are rejected at the engine's API edge, not here).
func NewObjectsWithIDs(g *graph.Network, ids []int32, vertices []graph.VertexID) *Objects {
	s := &Objects{
		tree:   pmr.New(0),
		at:     make(map[graph.VertexID][]int32, len(vertices)),
		labels: make([]int32, len(ids)),
		byID:   make(map[int32]int32, len(ids)),
	}
	copy(s.labels, ids)
	s.objs = make([]pmr.Object, len(vertices))
	for i, v := range vertices {
		// Dense slot ids inside every search structure; the stable public id
		// is applied only at the reporting boundary.
		o := pmr.Object{ID: int32(i), Vertex: v, Pos: g.Point(v)}
		s.objs[i] = o
		s.tree.Insert(o)
		s.at[v] = append(s.at[v], int32(i))
		s.byID[ids[i]] = int32(i)
	}
	return s
}

// Len returns |S|.
func (s *Objects) Len() int { return len(s.objs) }

// Tree returns the PMR quadtree over S.
func (s *Objects) Tree() *pmr.Tree { return s.tree }

// ByID returns the object with the given PUBLIC id, carrying that id. For
// NewObjects sets public ids are the dense slots; NewObjectsWithIDs sets go
// through the stable-id map.
func (s *Objects) ByID(id int32) pmr.Object {
	if s.byID == nil {
		return s.objs[id]
	}
	o := s.objs[s.byID[id]]
	o.ID = id
	return o
}

// Label maps a dense slot index to its public id (identity for NewObjects
// sets).
func (s *Objects) Label(i int32) int32 {
	if s.labels != nil {
		return s.labels[i]
	}
	return i
}

// resultAt returns the object at dense slot i carrying its public id — the
// only form a reported Neighbor may expose.
func (s *Objects) resultAt(i int32) pmr.Object {
	o := s.objs[i]
	o.ID = s.Label(i)
	return o
}

// All returns the objects in storage order (ascending public id for
// NewObjectsWithIDs sets). ID fields are dense slots — use Label for public
// ids. The slice aliases internal storage; do not modify.
func (s *Objects) All() []pmr.Object { return s.objs }

// AtVertex returns the dense slot ids of objects located at v.
func (s *Objects) AtVertex(v graph.VertexID) []int32 { return s.at[v] }

// Neighbor is one reported nearest neighbor.
type Neighbor struct {
	Object pmr.Object
	// Interval is the final network-distance interval; exact algorithms
	// report a point interval.
	Interval core.Interval
	// Dist is the network distance (Interval.Lo; exact when Exact).
	Dist float64
	// Exact reports whether Dist is the exact network distance.
	Exact bool
}

// Stats describes one query execution; fields irrelevant to an algorithm
// stay zero. These are the quantities the paper's figures plot.
type Stats struct {
	Algorithm string
	K         int

	MaxQueue    int // maximum size of the search priority queue Q
	MaxL        int // maximum size of the result priority queue L
	Lookups     int // zero-refinement interval computations
	Refinements int // progressive-refinement steps
	// KMinDistAccepts counts kNN-M results accepted directly against
	// KMINDIST, skipping refinement ("pruned" in the paper's fig. p.36).
	KMinDistAccepts int
	// LOps counts manipulations of L (the KNN-PQ cost component).
	LOps int

	// D0k is the first-k upper-bound estimate of Dk (kNN-I / kNN-M; also
	// recorded by kNN for the estimate-quality figure). Zero when no
	// estimate was formed.
	D0k float64
	// KMinDist0 is the lower bound of the object defining D0k at the moment
	// the estimate was formed.
	KMinDist0 float64
	// DkFinal is the distance of the kth reported neighbor.
	DkFinal float64

	Settled    int // INE/IER: vertices settled by graph expansion
	Relaxed    int // INE/IER: edges relaxed
	AStarCalls int // IER: per-candidate shortest-path computations

	IO  diskio.Stats  // buffer-pool traffic during the query
	CPU time.Duration // measured wall time of the query computation
}

// Result is the outcome of one kNN query.
type Result struct {
	// Neighbors holds up to k neighbors. Sorted is true when they are in
	// increasing network-distance order (kNN-M trades the ordering away).
	Neighbors []Neighbor
	Sorted    bool
	Stats     Stats
	// Err is non-nil when the query's context was cancelled mid-search; the
	// neighbors gathered so far are still returned.
	Err error
}

// Spec parameterizes one query beyond (objs, q): the result size, the
// algorithm, and the two relaxation knobs the unified API exposes.
type Spec struct {
	// K is the result size.
	K int
	// Variant selects the best-first family member (Search only).
	Variant Variant
	// Epsilon relaxes rank certification: a neighbor is reported as soon as
	// its interval satisfies δ⁺ ≤ (1+ε)·δ⁻, which certifies its true
	// distance within (1+ε)× of the true distance at that rank. 0 keeps the
	// paper's exact-rank contract. The exact baselines (INE/IER) ignore it —
	// exact answers satisfy every ε.
	Epsilon float64
	// MaxDist bounds reported neighbors to network distance ≤ MaxDist — the
	// hybrid kNN∩range query. +Inf disables it. Note that the zero value is
	// a real bound (only distance-0 objects): callers wanting "unbounded"
	// must say math.Inf(1), which UnboundedSpec and the package-level
	// convenience wrappers do.
	MaxDist float64
}

// UnboundedSpec returns a Spec with the distance bound disabled.
func UnboundedSpec(k int, variant Variant) Spec {
	return Spec{K: k, Variant: variant, MaxDist: inf}
}

// Distances returns the reported distances in result order.
func (r Result) Distances() []float64 {
	out := make([]float64, len(r.Neighbors))
	for i, n := range r.Neighbors {
		out[i] = n.Dist
	}
	return out
}

// queryClock pairs one query's wall clock with its own I/O counters. Every
// page access the query performs is charged to qc, so concurrent queries on
// one shared index each report exactly their own traffic (the previous
// design diffed the index-global counters around the query, which
// misattributes under concurrency).
type queryClock struct {
	ix    core.QueryIndex
	qc    *core.QueryContext
	start time.Time
}

func beginQuery(ix core.QueryIndex) queryClock {
	return beginQueryWith(ix, core.NewQueryContext())
}

// beginQueryWith charges the query to a caller-owned context, so the caller
// both attributes I/O and can cancel the query mid-flight.
func beginQueryWith(ix core.QueryIndex, qc *core.QueryContext) queryClock {
	if qc == nil {
		qc = core.NewQueryContext()
	}
	return queryClock{ix: ix, qc: qc, start: time.Now()}
}

func (b queryClock) finish(s *Stats) {
	s.CPU = time.Since(b.start)
	s.IO = b.qc.IO
}

var inf = math.Inf(1)
