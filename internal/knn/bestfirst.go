package knn

import (
	"cmp"
	"math"
	"slices"
	"time"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/pmr"
	"silc/internal/pqueue"
	"silc/internal/sssp"
)

// Variant selects one member of the SILC best-first kNN family.
type Variant int

const (
	// VariantKNN is the paper's non-incremental best-first algorithm: a
	// queue Q of blocks and objects ordered by interval lower bound δ⁻, a
	// result list L of the k best upper bounds δ⁺ defining the pruning
	// distance Dk, interval-collision tests against the top of Q, and
	// on-demand refinement.
	VariantKNN Variant = iota
	// VariantINN is the incremental variant: no L, no Dk pruning; neighbors
	// stream out in distance order as their intervals separate.
	VariantINN
	// VariantKNNI estimates D⁰k from the upper bounds of the first k
	// objects discovered and uses that static bound to filter every later
	// enqueue, avoiding further manipulation of L.
	VariantKNNI
	// VariantKNNM additionally accepts an object outright when its upper
	// bound drops below KMINDIST, the lower bound of the object currently
	// defining Dk — skipping the refinements that only establish a total
	// order. Its output is therefore unsorted.
	//
	// The KMINDIST shortcut is the paper's heuristic: it treats the Dk
	// object's lower bound as a lower bound on the true kth-neighbor
	// distance, which holds when intervals are tight and path-coherent (the
	// paper's road networks) but can over-accept a boundary object on
	// adversarial topologies with wildly uneven interval widths. The
	// guarantee kNN-M always provides: k objects, each with true distance
	// at most D⁰k, the first-k upper-bound estimate.
	VariantKNNM
	// VariantRange is the range query as a member of the family: Spec.MaxDist
	// is the radius, no L is kept, and a popped object is refined in place
	// until its interval no longer straddles the radius, then reported or
	// dropped. Spec.Epsilon widens acceptance to δ⁺ ≤ (1+ε)·radius (reach).
	// Its output is unsorted.
	VariantRange
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantKNN:
		return "KNN"
	case VariantINN:
		return "INN"
	case VariantKNNI:
		return "KNN-I"
	case VariantKNNM:
		return "KNN-M"
	case VariantRange:
		return "RANGE"
	default:
		return "unknown"
	}
}

// Variants lists the paper's kNN family in the paper's order.
var Variants = []Variant{VariantINN, VariantKNNI, VariantKNN, VariantKNNM}

// SearchSpec runs the best-first kNN family from query vertex q under a
// caller-supplied query context (cancellation + I/O attribution; nil = a
// fresh one) and Spec (variant, ε-approximation, distance bound). All search
// scratch lives on the query context and is reused by its next query, so a
// pooled context answers steady-state queries without allocating; the
// returned Result owns its Neighbors slice.
func SearchSpec(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, spec Spec) Result {
	clock := beginQueryWith(ix, qc)
	e := scratchFor(clock.qc).engineFor(ix, clock.qc, objs, q, spec.K, spec.Variant)
	e.eps = spec.Epsilon
	e.maxDist = spec.MaxDist
	e.run()
	res := e.result()
	clock.finish(&res.Stats)
	return res
}

type qelem struct {
	node *pmr.Node // non-nil: an object-index block
	obj  int32     // object id when node == nil
	seq  uint32    // object freshness stamp (lazy deletion)
}

// objState is the per-object refinement state of one query, stored by value
// in the scratch arena's dense id-indexed table. Entries are stamped with the
// arena's query epoch at discovery; between queries nothing is cleared — a
// stale entry is simply overwritten whole when its object is rediscovered,
// and ids are only ever read back after discovery within the same query.
type objState struct {
	refiner  core.DistanceRefiner
	iv       core.Interval
	id       int32
	seq      uint32
	epoch    uint32
	inL      bool
	reported bool
	lh       pqueue.Handle[int32]
}

// engine holds all mutable state of one query: the queues, the per-object
// refinement scratch, and the query context its I/O is charged to. Engines
// never share state, so any number may run concurrently over one Index.
// An engine frame is embedded in a scratch arena and recycled between
// queries; engineFor re-arms it.
type engine struct {
	ix      core.QueryIndex
	qc      *core.QueryContext
	objs    *Objects
	q       graph.VertexID
	k       int
	variant Variant

	queue   pqueue.Min[qelem]
	l       pqueue.Indexed[int32]
	states  []objState
	epoch   uint32
	results []Neighbor
	// drainIDs/drainRest are drainL's reusable buffers.
	drainIDs  []int32
	drainRest []*objState
	stats     Stats

	d0k      float64 // static bound for kNN-I/kNN-M enqueue filtering
	d0kFixed bool
	frozen   bool // kNN-I: stop maintaining L once D0k is fixed

	// eps relaxes rank certification: report once δ⁺ ≤ (1+eps)·δ⁻.
	eps float64
	// maxDist excludes objects farther than this bound (+Inf = unbounded).
	maxDist float64
	// err records mid-search cancellation; the loop stops and the partial
	// results stand.
	err error

	// hint is the index's batching hook when it has one that wants hints (a
	// cluster router), else nil; hintDsts/hintCells are the reusable buffers
	// one hint is assembled in.
	hint      core.ExpandHinter
	hintDsts  []graph.VertexID
	hintCells []geom.Cell
}

// scratch is the reusable query arena: one engine frame plus its buffers,
// and the graph-expansion workspace of the INE/IER baselines. It rides on
// core.QueryContext.Scratch, so a pooled context carries its warmed-up arena
// from query to query and steady-state searches allocate nothing. A scratch
// serves one query at a time; concurrent queries get their own contexts and
// therefore their own arenas.
type scratch struct {
	eng engine
	// search is the graph expansion of the INE/IER baselines;
	// epoch-stamped so IER re-arms it per candidate in O(1).
	search sssp.Search
	// best accumulates the k best neighbors for INE/IER; drainNb is the
	// reusable drain buffer behind their result sorting.
	best    pqueue.Indexed[Neighbor]
	drainNb []Neighbor
}

// scratchFor returns qc's arena, creating and attaching one on first use.
func scratchFor(qc *core.QueryContext) *scratch {
	if sc, ok := qc.Scratch.(*scratch); ok {
		return sc
	}
	sc := new(scratch)
	qc.Scratch = sc
	return sc
}

// engineFor re-arms the embedded engine frame for one query, reusing every
// buffer the previous query grew. The object-state table is epoch-stamped
// rather than cleared: O(1) per query instead of O(|S|).
func (sc *scratch) engineFor(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, k int, variant Variant) *engine {
	e := &sc.eng
	e.ix, e.qc, e.objs, e.q, e.k, e.variant = ix, qc, objs, q, k, variant
	e.queue.Reset()
	e.l.InitMax()
	// states is indexed by slot, so it spans the slot bound — which a live
	// set's free slots can hold above its object count. It grows
	// geometrically: a live set growing one insert at a time reallocates it
	// O(log n) times, not once per query. A new table is zeroed, so no entry
	// carries a stamp of the epoch about to start.
	n := objs.SlotBound()
	if cap(e.states) < n {
		e.states = make([]objState, n, max(n, 2*cap(e.states)))
	} else {
		e.states = e.states[:n]
	}
	e.epoch++
	if e.epoch == 0 {
		// uint32 wrap: clear stale stamps — the spare capacity's included —
		// so none collide with the new epoch.
		clear(e.states[:cap(e.states)])
		e.epoch = 1
	}
	e.results = e.results[:0]
	e.drainIDs = e.drainIDs[:0]
	clear(e.drainRest) // drop stale *objState so old tables aren't pinned
	e.drainRest = e.drainRest[:0]
	e.stats = Stats{Algorithm: variant.String(), K: k}
	e.d0k, e.d0kFixed, e.frozen = inf, false, false
	e.eps, e.maxDist = 0, inf
	e.err = nil
	e.hint = nil
	if h, ok := ix.(core.ExpandHinter); ok && h.WantsExpandHints() {
		e.hint = h
	}
	if k > 0 && objs.Len() > 0 {
		e.queue.Push(0, qelem{node: objs.Tree().Root()})
		e.noteQueue()
	}
	return e
}

// dk is the evolving pruning distance: the kth-smallest interval upper
// bound, +Inf until L holds k objects.
func (e *engine) dk() float64 {
	if e.l.Len() == e.k {
		return e.l.TopKey()
	}
	return inf
}

// admit reports whether an element with interval lower bound lo can still
// contribute to the result. kNN and kNN-M prune strictly against the
// evolving Dk (boundary cases are completed from L by drainL); kNN-I admits
// up to its static D⁰k inclusively, because after freezing there is no L to
// fall back on and D⁰k itself is attainable by a legitimate kth neighbor.
// A finite maxDist additionally excludes anything provably beyond the bound.
func (e *engine) admit(lo float64) bool {
	if lo > e.maxDist {
		return false
	}
	switch e.variant {
	case VariantKNN, VariantKNNM:
		return lo < e.dk()
	case VariantKNNI:
		return lo <= e.d0k
	default:
		return true
	}
}

// halted reports whether popping a fresh element with the given key proves
// the search complete: the queue is min-ordered, so every remaining element
// is at least this far.
func (e *engine) halted(key float64) bool {
	if key > e.maxDist {
		return true
	}
	switch e.variant {
	case VariantKNN, VariantKNNM:
		return key >= e.dk()
	case VariantKNNI:
		return key > e.d0k
	default:
		return false
	}
}

// noteQueue is called once after every queue push: it tracks the
// high-water mark and counts the push into the query's trace span.
func (e *engine) noteQueue() {
	e.qc.Span.HeapPushes++
	if n := e.queue.Len(); n > e.stats.MaxQueue {
		e.stats.MaxQueue = n
	}
}

func (e *engine) run() {
	for len(e.results) < e.k {
		if !e.step() {
			break
		}
	}
	if e.err == nil && len(e.results) < e.k && (e.variant == VariantKNN || e.variant == VariantKNNM) {
		e.drainL()
	}
	if n := len(e.results); n > 0 && e.variant != VariantRange {
		e.stats.DkFinal = e.results[n-1].Dist
		if e.variant == VariantKNNM {
			// Unsorted output: take the max.
			for _, nb := range e.results {
				if nb.Dist > e.stats.DkFinal {
					e.stats.DkFinal = nb.Dist
				}
			}
		}
	}
}

// step processes one queue element. It returns false when the search is
// finished (queue exhausted, pruning proves completeness, or the query's
// context was cancelled — checked here so cancellation takes effect within
// one refinement step).
func (e *engine) step() bool {
	if e.err != nil {
		return false
	}
	if err := e.qc.Err(); err != nil {
		e.err = err
		return false
	}
	if e.queue.Len() == 0 {
		return false
	}
	key, el := e.queue.Pop()

	if el.node != nil {
		if e.halted(key) {
			// Nothing better remains; kNN and kNN-M complete from L.
			return false
		}
		e.expand(el.node)
		return true
	}

	st := &e.states[el.obj]
	if st.reported || el.seq != st.seq {
		return true // stale entry
	}
	if e.halted(key) {
		return false
	}

	// Unreachable objects are never reported.
	if unreachable(st) {
		st.reported = true // drop without emitting
		return true
	}

	// Range: membership is all there is to certify, and nothing left in the
	// queue bears on it, so refine in place while the interval straddles the
	// radius. A cancelled query decides on the interval it has.
	if e.variant == VariantRange {
		for e.straddles(st) && e.qc.Err() == nil {
			st.refiner.Step()
			e.stats.Refinements++
			st.iv = st.refiner.Interval()
		}
		if st.iv.Lo <= e.maxDist && (st.iv.Hi <= e.reach() || st.refiner.Done()) {
			e.report(st)
		}
		return true
	}

	// kNN-M: accept directly against KMINDIST, the lower bound of the
	// object defining Dk; its distance certifies membership in the top k
	// without refining p any further (paper p.36).
	if e.variant == VariantKNNM && e.l.Len() == e.k {
		kmin := e.states[topOf(&e.l)].iv.Lo
		if st.iv.Hi <= kmin && st.iv.Hi <= e.maxDist &&
			(e.eps == 0 || st.iv.Hi <= (1+e.eps)*st.iv.Lo) {
			e.stats.KMinDistAccepts++
			e.report(st)
			return true
		}
	}

	// Rank certification against the new top of Q. Block tops carry the
	// interval [key, +Inf); object tops' lower bound is their key; in both
	// cases the intervals intersect iff top's key <= p's upper bound. With
	// ε > 0 a self-certified interval (δ⁺ ≤ (1+ε)·δ⁻) also suffices: every
	// remaining element has true distance ≥ δ⁻, so p's true distance is
	// within (1+ε)× of the true distance at this rank.
	//
	// Separation from Q alone does not cover L: admit keeps an object whose
	// lower bound has reached Dk out of the queue — it waits in L as the point
	// interval [Dk, Dk] for drainL — so a p with δ⁻ < Dk < δ⁺ may still lie
	// behind it. The variants that keep L therefore also require δ⁺ ≤ Dk.
	selfCert := st.iv.Hi <= (1+e.eps)*st.iv.Lo
	separated := e.queue.Len() == 0 || st.iv.Hi < e.queue.PeekKey()
	if e.variant == VariantKNN || e.variant == VariantKNNM {
		separated = separated && st.iv.Hi <= e.dk()
	}
	rankCert := st.refiner.Done() || separated || selfCert
	// Distance certification: ε = 0 reports the classic loose-interval
	// lower bound (exact ranking is the contract, not exact distances); an
	// ε > 0 query additionally promises every reported distance within
	// (1+ε)× of true, so a separation-certified object keeps refining
	// until its own interval certifies that bound too.
	distCert := e.eps == 0 || selfCert || st.refiner.Done()
	if rankCert && distCert {
		if st.iv.Hi <= e.maxDist {
			e.report(st)
			return true
		}
		if st.refiner.Done() {
			st.reported = true // exact but beyond the distance bound: drop
			return true
		}
		// The interval straddles maxDist: membership is undecided, so fall
		// through and refine even though the rank is already certified.
	}

	// Collision: refine one step and reinsert.
	if e.hint != nil {
		e.hintCollision(st)
	}
	st.refiner.Step()
	e.stats.Refinements++
	st.iv = st.refiner.Interval()
	st.seq++
	e.updateL(st)
	if e.admit(st.iv.Lo) {
		e.queue.Push(st.iv.Lo, qelem{obj: st.id, seq: st.seq})
		e.noteQueue()
	}
	return true
}

// expand processes one object-hierarchy node — the filter phase of the
// search, as opposed to the interval-refinement phase step drives. Its
// wall clock is only taken when the span opted in (Timed): time.Now
// pairs cost real time against a warm in-memory query.
func (e *engine) expand(n *pmr.Node) {
	if e.qc.Span.Timed {
		start := time.Now()
		defer func() { e.qc.Span.FilterNanos += time.Since(start).Nanoseconds() }()
	}
	if e.hint != nil {
		e.hintNode(n)
	}
	if n.IsLeaf() {
		for _, o := range n.Objects() {
			e.discover(o)
		}
		if e.hint != nil && e.variant == VariantRange {
			// A range query refines each of these objects whose interval
			// straddles the radius: announce them as one batch.
			dsts := e.hintDsts[:0]
			for _, o := range n.Objects() {
				if e.straddles(&e.states[o.ID]) {
					dsts = append(dsts, o.Vertex)
				}
			}
			e.hintRefine(dsts)
		}
		return
	}
	for _, c := range n.Children() {
		if c == nil {
			continue
		}
		lb := e.ix.RegionLowerBoundCtx(e.qc, e.q, c.Cell())
		if e.admit(lb) {
			e.queue.Push(lb, qelem{node: c})
			e.noteQueue()
		}
	}
}

// hintNode tells a hint-taking index what expanding n and its children is
// about to ask of it: a Refine per object of a leaf; for an interior node a
// region lower bound per child and per grandchild, plus a Refine per object
// of every child and every grandchild that is a leaf. The index answers the
// lot in one batch (one RPC on a cluster router) instead of one call at a
// time.
//
// Expanding a child of an announced node, or a leaf grandchild, asks nothing
// the announcement did not name, so those nodes announce nothing: the nodes
// that do are the root and the interior nodes at even depth. A node's depth
// is its cell's level, so the rule needs no per-query state.
func (e *engine) hintNode(n *pmr.Node) {
	if depth := n.Cell().Level; depth%2 == 1 || (depth > 0 && n.IsLeaf()) {
		return
	}
	dsts, cells := e.hintDsts[:0], e.hintCells[:0]
	for _, o := range n.Objects() {
		dsts = append(dsts, o.Vertex)
	}
	for _, c := range n.Children() {
		if c == nil {
			continue
		}
		cells = append(cells, c.Cell())
		for _, o := range c.Objects() {
			dsts = append(dsts, o.Vertex)
		}
		for _, gc := range c.Children() {
			if gc == nil {
				continue
			}
			cells = append(cells, gc.Cell())
			for _, o := range gc.Objects() {
				dsts = append(dsts, o.Vertex)
			}
		}
	}
	e.hintDsts, e.hintCells = dsts, cells
	e.hint.HintExpand(e.qc, e.q, dsts, cells)
}

// hintCollision tells a hint-taking index which refiners the query expects
// to step to exact now that st has collided: st's own, and — while the
// variant keeps L — those of the members of L that are not exact yet. L is
// the search's current guess at the result, and a member that stays in it is
// refined to exact either by a collision of its own or, reported on a loose
// interval, by the caller that wants exact distances; so the index can race
// the lot in one batch (one RPC per cell on a cluster router) instead of one
// at a time.
func (e *engine) hintCollision(st *objState) {
	dsts := append(e.hintDsts[:0], e.objs.slot(st.id).Vertex)
	if e.maintainsL() {
		e.drainIDs = e.l.AppendItems(e.drainIDs[:0])
		for _, id := range e.drainIDs {
			if m := &e.states[id]; m != st && !m.refiner.Done() {
				dsts = append(dsts, e.objs.slot(id).Vertex)
			}
		}
	}
	e.hintRefine(dsts)
}

// hintRefine announces that the query expects to step the refiners toward
// dsts to exact. dsts was built on e.hintDsts[:0].
func (e *engine) hintRefine(dsts []graph.VertexID) {
	e.hintDsts = dsts
	if len(dsts) > 0 {
		e.hint.HintRefine(e.qc, e.q, dsts)
	}
}

func (e *engine) discover(o pmr.Object) {
	st := &e.states[o.ID]
	*st = objState{id: o.ID, refiner: e.ix.Refine(e.qc, e.q, o.Vertex), epoch: e.epoch}
	st.iv = st.refiner.Interval()
	e.stats.Lookups++
	e.qc.Span.Lookups++
	e.maybeInsertL(st)
	if e.admit(st.iv.Lo) {
		e.queue.Push(st.iv.Lo, qelem{obj: o.ID, seq: st.seq})
		e.noteQueue()
	}
}

// maintainsL reports whether the variant manipulates L at this moment.
func (e *engine) maintainsL() bool {
	switch e.variant {
	case VariantKNN, VariantKNNM:
		return true
	case VariantKNNI:
		return !e.frozen
	default:
		return false
	}
}

func (e *engine) maybeInsertL(st *objState) {
	if !e.maintainsL() || st.inL || unreachable(st) {
		return
	}
	if e.l.Len() < e.k {
		st.lh = e.l.Push(st.iv.Hi, st.id)
		st.inL = true
		e.stats.LOps++
	} else if st.iv.Hi < e.l.TopKey() {
		evicted := topOf(&e.l)
		e.l.Pop()
		e.states[evicted].inL = false
		st.lh = e.l.Push(st.iv.Hi, st.id)
		st.inL = true
		e.stats.LOps += 2
	}
	if n := e.l.Len(); n > e.stats.MaxL {
		e.stats.MaxL = n
	}
	if e.l.Len() == e.k && !e.d0kFixed {
		// The first-k estimate the paper calls D⁰k, and the lower bound of
		// the object defining it (KMINDIST at estimation time).
		e.d0kFixed = true
		e.d0k = e.l.TopKey()
		e.stats.D0k = e.d0k
		e.stats.KMinDist0 = e.states[topOf(&e.l)].iv.Lo
		if e.variant == VariantKNNI {
			e.frozen = true
		}
	}
}

func (e *engine) updateL(st *objState) {
	if !e.maintainsL() {
		return
	}
	if st.inL {
		e.l.Update(st.lh, st.iv.Hi)
		e.stats.LOps++
		return
	}
	e.maybeInsertL(st)
}

func (e *engine) report(st *objState) {
	st.reported = true
	exact := st.refiner.Done() || st.iv.Exact()
	e.results = append(e.results, Neighbor{
		Object:   e.objs.resultAt(st.id),
		Interval: st.iv,
		Dist:     st.iv.Lo,
		Exact:    exact,
	})
}

// drainL emits the unreported members of L in upper-bound order. When the
// plain exact search halts on the Dk bound, every unreported member of L
// provably holds a point interval (δ⁻ >= Dk >= δ⁺), so this order is exact.
// Under a finite maxDist or an ε > 0 distance promise that proof does not
// apply: the members are refined here until their intervals certify both,
// and filtered against the bound.
func (e *engine) drainL() {
	if e.l.Len() == 0 {
		return
	}
	e.drainIDs = e.l.AppendItems(e.drainIDs[:0])
	rest := e.drainRest[:0]
	for _, id := range e.drainIDs {
		if st := &e.states[id]; !st.reported {
			rest = append(rest, st)
		}
	}
	e.drainRest = rest
	if !math.IsInf(e.maxDist, 1) || e.eps > 0 {
		// uncertified: st still has to refine before it may be reported.
		uncertified := func(st *objState) bool {
			return !st.refiner.Done() &&
				!(st.iv.Hi <= e.maxDist && st.iv.Hi <= (1+e.eps)*st.iv.Lo)
		}
		if e.hint != nil {
			dsts := e.hintDsts[:0]
			for _, st := range rest {
				if uncertified(st) {
					dsts = append(dsts, e.objs.slot(st.id).Vertex)
				}
			}
			e.hintRefine(dsts)
		}
		kept := rest[:0]
		for _, st := range rest {
			for uncertified(st) {
				if err := e.qc.Err(); err != nil {
					// Cancelled mid-drain: reporting the still-uncertified
					// members would break the maxDist/ε guarantees, so stop
					// here and surface the cancellation.
					e.err = err
					return
				}
				st.refiner.Step()
				e.stats.Refinements++
				st.iv = st.refiner.Interval()
			}
			if !unreachable(st) && st.iv.Lo <= e.maxDist {
				kept = append(kept, st)
			}
		}
		rest = kept
	}
	slices.SortFunc(rest, func(a, b *objState) int { return cmp.Compare(a.iv.Hi, b.iv.Hi) })
	for _, st := range rest {
		if len(e.results) >= e.k {
			break
		}
		e.report(st)
	}
}

// result snapshots the search outcome. Neighbors is copied out of the
// scratch arena so the Result stays valid after the arena serves its next
// query.
func (e *engine) result() Result {
	var ns []Neighbor
	if len(e.results) > 0 {
		ns = make([]Neighbor, len(e.results))
		copy(ns, e.results)
	}
	return Result{
		Neighbors: ns,
		Sorted:    e.variant != VariantKNNM && e.variant != VariantRange,
		Stats:     e.stats,
		Err:       e.err,
	}
}

// reach is the range variant's acceptance bound on δ⁺: the radius, widened
// to (1+ε)·radius under ε. An object is in once δ⁻ ≤ radius and
// δ⁺ ≤ reach, and out once δ⁻ > radius, so the answer holds every object
// within the radius and none beyond (1+ε)·radius.
func (e *engine) reach() float64 { return (1 + e.eps) * e.maxDist }

// straddles reports whether st's range membership is still undecided and
// more refinement can decide it.
func (e *engine) straddles(st *objState) bool {
	return st.iv.Lo <= e.maxDist && st.iv.Hi > e.reach() && !st.refiner.Done()
}

// unreachable reports whether st's destination cannot be reached from the
// query vertex — possible only on a lenient (AllowUnreachable) cell index,
// where the refiner is done at [+Inf, +Inf]. Such an object has no rank and
// is never reported.
func unreachable(st *objState) bool { return math.IsInf(st.iv.Lo, 1) }

// topOf returns the object id at the root of L.
func topOf(l *pqueue.Indexed[int32]) int32 {
	_, id := l.Top()
	return id
}

// Browser is an incremental network-distance cursor over an object set: the
// INN algorithm exposed as an iterator ("distance browsing"). Each Next
// returns the next-nearest object; the cursor retains all search state so a
// k+1st neighbor costs only the incremental work.
type Browser struct {
	e  *engine
	at int
}

// NewBrowserSpec positions a cursor before the nearest object to q, bound to
// a caller-supplied query context (cancellation + I/O attribution; nil = a
// fresh one) and Spec: Epsilon relaxes per-neighbor rank certification,
// MaxDist ends the stream at the distance bound. Cursors over distinct
// contexts — even over one shared disk-backed index — browse concurrently,
// each accounting its own I/O.
// Spec.K and Spec.Variant are ignored — a browser always streams the whole
// set incrementally (INN).
//
// The cursor owns qc's scratch arena for its whole lifetime: do not run
// another search on the same context while the cursor is live, and do not
// recycle the context until the cursor is dropped.
func NewBrowserSpec(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, spec Spec) *Browser {
	if qc == nil {
		qc = core.NewQueryContext()
	}
	e := scratchFor(qc).engineFor(ix, qc, objs, q, objs.Len(), VariantINN)
	e.eps = spec.Epsilon
	e.maxDist = spec.MaxDist
	return &Browser{e: e}
}

// Next returns the next neighbor in increasing network distance; ok is false
// when the set is exhausted, the distance bound is reached, or the cursor's
// context was cancelled (distinguish with Err).
func (b *Browser) Next() (Neighbor, bool) {
	for len(b.e.results) <= b.at {
		if !b.e.step() {
			return Neighbor{}, false
		}
	}
	n := b.e.results[b.at]
	b.at++
	return n, true
}

// Err reports the cancellation error that ended the browse, nil for a
// normally exhausted (or still live) cursor.
func (b *Browser) Err() error { return b.e.err }

// Query returns the cursor's query vertex.
func (b *Browser) Query() graph.VertexID { return b.e.q }

// Context returns the cursor's query context, so follow-up work on behalf
// of the same logical query (e.g. refining a reported neighbor to exact)
// can charge the same counters.
func (b *Browser) Context() *core.QueryContext { return b.e.qc }

// Stats returns the cursor's accumulated statistics, including the I/O
// traffic charged to its query context so far.
func (b *Browser) Stats() Stats {
	s := b.e.stats
	s.IO = b.e.qc.IO
	return s
}
