// Package knn implements the paper's k-nearest-neighbor algorithms over a
// SILC index: the non-incremental best-first kNN (paper §4) and its variants
// INN, kNN-I, and kNN-M, plus the two comparison baselines from Papadias et
// al. (VLDB 2003) — INE (incremental network expansion, i.e. Dijkstra with a
// result buffer) and IER (incremental Euclidean restriction). The range
// query is a variant of the same engine (VariantRange): one best-first loop
// answers kNN, browsing and range queries.
//
// All algorithms consume the same inputs — a core.QueryIndex (the monolithic
// SILC index or the sharded partition index), an object set S in a PMR
// quadtree, a query vertex, and k — and report uniform statistics (queue
// sizes, refinement counts, buffer-pool traffic) so the paper's evaluation
// can be regenerated measure for measure.
package knn

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"

	"silc/internal/core"
	"silc/internal/diskio"
	"silc/internal/graph"
	"silc/internal/pmr"
)

// Objects is the query set S: a PMR quadtree over the objects plus the slot
// table the search engines index by.
//
// Internally every structure — the quadtree, the search engines' state
// arrays, the lazy side tables — works in SLOTS: small integers below
// SlotBound, one per object, carried in pmr.Object.ID. A static set
// (NewObjects) fills slots 0..Len-1 in input order and its public ids ARE its
// slots (labels == nil). A live set — one version of the object store, derived
// from its predecessor by WithInserted/WithMoved/WithRemoved — keeps an
// object in the same slot for its whole life and hands a freed slot to a
// later object, so the slots below the bound can hold gaps: SlotBound sizes
// arrays, Len counts objects. Its public ids are the store's, applied to an
// object only at the reporting boundary (resultAt/Label), so
// Neighbor.Object.ID is always the caller's id.
//
// An Objects is immutable once built or derived: a derivation copies the
// root-to-leaf path of the quadtree and one fixed-size chunk of each table
// it changes, and shares the rest with its predecessor.
type Objects struct {
	g    *graph.Network
	tree *pmr.Tree
	// chunks is the slot table: slot i is chunks[i>>chunkShift][i&chunkMask].
	// A slot below the bound without an object has Vertex == graph.NoVertex;
	// nothing reads a slot at or above the bound.
	chunks []*[chunkSize]pmr.Object
	bound  int
	live   int
	// labels maps a slot to its public id, chunked like the slot table; nil
	// means identity (the NewObjects fast path stays free of it everywhere).
	labels []*[chunkSize]int32

	// The two side tables no best-first search reads are built on first use,
	// once per version: at for the network-expansion baselines, byID (live
	// sets only) for lookups by public id.
	atOnce   sync.Once
	at       map[graph.VertexID][]int32
	byIDOnce sync.Once
	byID     map[int32]int32
}

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// NewObjects builds an object set from network vertices. Object IDs are
// dense in input order. Multiple objects may share a vertex.
func NewObjects(g *graph.Network, vertices []graph.VertexID) *Objects {
	n := len(vertices)
	s := &Objects{g: g, tree: pmr.FromVertices(g, vertices, 0), bound: n, live: n}
	// One allocation, viewed as chunks.
	flat := make([]pmr.Object, (n+chunkMask)&^chunkMask)
	for i, v := range vertices {
		flat[i] = pmr.Object{ID: int32(i), Vertex: v, Pos: g.Point(v)}
	}
	s.chunks = make([]*[chunkSize]pmr.Object, len(flat)>>chunkShift)
	for c := range s.chunks {
		s.chunks[c] = (*[chunkSize]pmr.Object)(flat[c<<chunkShift:])
	}
	return s
}

// EmptyObjects returns the live set without objects: the head of the chain of
// versions the With* derivations produce. It is valid to hold (queries over
// an empty set are rejected at the engine's API edge, not here).
func EmptyObjects(g *graph.Network) *Objects {
	return &Objects{g: g, tree: pmr.New(0), labels: []*[chunkSize]int32{}}
}

// successor starts a derivation: everything shared with s, side tables unbuilt.
func (s *Objects) successor() *Objects {
	return &Objects{g: s.g, tree: s.tree, chunks: s.chunks, bound: s.bound, live: s.live, labels: s.labels}
}

// withChunk returns table with the chunk of slot replaced by a copy (a fresh
// chunk when slot opens a new one) and that copy, for the caller to write
// its one entry. The spine is always reallocated: predecessors may still be
// reading the old one, resliced or not.
func withChunk[T any](table []*[chunkSize]T, slot int32) ([]*[chunkSize]T, *[chunkSize]T) {
	c := int(slot >> chunkShift)
	spine := make([]*[chunkSize]T, max(len(table), c+1))
	copy(spine, table)
	chunk := new([chunkSize]T)
	if c < len(table) {
		*chunk = *table[c]
	}
	spine[c] = chunk
	return spine, chunk
}

// put stores o in its slot of s's own copy of the slot table.
func (s *Objects) put(o pmr.Object) {
	var chunk *[chunkSize]pmr.Object
	s.chunks, chunk = withChunk(s.chunks, o.ID)
	chunk[o.ID&chunkMask] = o
}

// WithInserted returns the successor of the live set s that also holds an
// object with public id on vertex v, in slot — a slot below the bound that
// holds no object, or the bound itself, which then grows by one.
func (s *Objects) WithInserted(slot, id int32, v graph.VertexID) *Objects {
	if int(slot) > s.bound || (int(slot) < s.bound && s.Live(slot)) {
		panic("knn: WithInserted into a slot that is live or beyond the bound")
	}
	n := s.successor()
	o := pmr.Object{ID: slot, Vertex: v, Pos: s.g.Point(v)}
	n.put(o)
	var labels *[chunkSize]int32
	n.labels, labels = withChunk(s.labels, slot)
	labels[slot&chunkMask] = id
	n.tree = s.tree.With(o)
	n.bound = max(s.bound, int(slot)+1)
	n.live++
	return n
}

// WithMoved returns the successor of s in which the object in slot sits on v.
func (s *Objects) WithMoved(slot int32, v graph.VertexID) *Objects {
	n := s.successor()
	o := pmr.Object{ID: slot, Vertex: v, Pos: s.g.Point(v)}
	n.put(o)
	n.tree = s.without(slot).With(o)
	return n
}

// WithRemoved returns the successor of s without the object in slot. The
// bound falls past every trailing slot left without an object, and the
// chunks above it are dropped.
func (s *Objects) WithRemoved(slot int32) *Objects {
	n := s.successor()
	n.put(pmr.Object{ID: slot, Vertex: graph.NoVertex})
	n.tree = s.without(slot)
	n.live--
	for n.bound > 0 && !n.Live(int32(n.bound-1)) {
		n.bound--
	}
	keep := (n.bound + chunkMask) >> chunkShift
	n.chunks, n.labels = n.chunks[:keep], n.labels[:keep]
	return n
}

// without returns s's tree less the object in slot, which must be live.
func (s *Objects) without(slot int32) *pmr.Tree {
	if int(slot) < s.bound {
		if t, ok := s.tree.Without(s.slot(slot)); ok {
			return t
		}
	}
	panic("knn: derivation from a slot that holds no object")
}

// Len returns |S|, the number of objects.
func (s *Objects) Len() int { return s.live }

// SlotBound returns the exclusive upper bound of the slots in use: what an
// array indexed by slot must hold. It equals Len for a static set and can
// exceed it for a live one.
func (s *Objects) SlotBound() int { return s.bound }

// Live reports whether slot, below the bound, holds an object.
func (s *Objects) Live(slot int32) bool { return s.slot(slot).Vertex != graph.NoVertex }

// Tree returns the PMR quadtree over S; its objects carry slots.
func (s *Objects) Tree() *pmr.Tree { return s.tree }

// slot returns the slot table's entry (ID is the slot itself).
func (s *Objects) slot(i int32) pmr.Object { return s.chunks[i>>chunkShift][i&chunkMask] }

// objects yields the slot table's entries that hold an object, by ascending
// slot — what the listings and the lazy side tables are built from.
func (s *Objects) objects(yield func(pmr.Object) bool) {
	for i := int32(0); int(i) < s.bound; i++ {
		if o := s.slot(i); o.Vertex != graph.NoVertex && !yield(o) {
			return
		}
	}
}

// ByID returns the object with the given PUBLIC id, carrying that id; an id
// a live set does not hold comes back with Vertex == graph.NoVertex. For
// NewObjects sets public ids are the slots; a live set derives its id → slot
// map on the first call.
func (s *Objects) ByID(id int32) pmr.Object {
	if s.labels == nil {
		return s.slot(id)
	}
	s.byIDOnce.Do(func() {
		s.byID = make(map[int32]int32, s.live)
		for o := range s.objects {
			s.byID[s.Label(o.ID)] = o.ID
		}
	})
	if i, ok := s.byID[id]; ok {
		return s.resultAt(i)
	}
	return pmr.Object{ID: id, Vertex: graph.NoVertex}
}

// Label maps a slot to its public id (identity for NewObjects sets).
func (s *Objects) Label(i int32) int32 {
	if s.labels != nil {
		return s.labels[i>>chunkShift][i&chunkMask]
	}
	return i
}

// resultAt returns the object in slot i carrying its public id — the only
// form a reported Neighbor may expose.
func (s *Objects) resultAt(i int32) pmr.Object {
	o := s.slot(i)
	o.ID = s.Label(i)
	return o
}

// Members lists the objects, carrying their public ids, by ascending id.
func (s *Objects) Members() []pmr.Object {
	out := make([]pmr.Object, 0, s.live)
	for o := range s.objects {
		o.ID = s.Label(o.ID)
		out = append(out, o)
	}
	if s.labels != nil { // slots are reused, so slot order is not id order
		slices.SortFunc(out, func(a, b pmr.Object) int { return cmp.Compare(a.ID, b.ID) })
	}
	return out
}

// AtVertex returns the slots of the objects located at v, ascending. The
// vertex map behind it is built on the first call.
func (s *Objects) AtVertex(v graph.VertexID) []int32 {
	s.atOnce.Do(func() {
		s.at = make(map[graph.VertexID][]int32, s.live)
		for o := range s.objects {
			s.at[o.Vertex] = append(s.at[o.Vertex], o.ID)
		}
	})
	return s.at[v]
}

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

	Settled int // INE/IER: vertices settled by graph expansion
	Relaxed int // INE/IER: edges relaxed

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
	// paper's exact-rank contract. VariantRange reads it as a widened
	// radius: accepted objects have δ⁺ ≤ (1+ε)·MaxDist. The exact baselines
	// (INE/IER) ignore it — exact answers satisfy every ε.
	Epsilon float64
	// MaxDist bounds reported neighbors to network distance ≤ MaxDist — the
	// hybrid kNN∩range query. +Inf disables it. Note that the zero value is
	// a real bound (only distance-0 objects): callers wanting "unbounded"
	// must say math.Inf(1), which UnboundedSpec does.
	MaxDist float64
}

// UnboundedSpec returns a Spec with the distance bound disabled.
func UnboundedSpec(k int, variant Variant) Spec {
	return Spec{K: k, Variant: variant, MaxDist: inf}
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
