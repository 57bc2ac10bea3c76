package knn

import (
	"silc/internal/core"
	"silc/internal/graph"
)

// RangeSearch returns every object within network distance radius of q —
// the paper's "general framework" claim instantiated for a second query
// type. The same machinery as kNN applies: object-index blocks prune on
// their interval lower bound, objects accept on δ⁺ <= radius, reject on
// δ⁻ > radius, and refine only while their interval straddles the radius.
// Results are unordered; distances are intervals refined just far enough to
// decide membership.
func RangeSearch(ix core.QueryIndex, objs *Objects, q graph.VertexID, radius float64) Result {
	return RangeSearchCtx(ix, core.NewQueryContext(), objs, q, radius)
}

// RangeSearchCtx is RangeSearch under a caller-supplied query context, so
// the caller attributes I/O and can cancel the search between refinements.
// Like SearchSpec it runs on the context's reusable scratch arena and copies
// the results out, so a pooled context answers steady-state range queries
// without allocating.
func RangeSearchCtx(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, radius float64) Result {
	clock := beginQueryWith(ix, qc)
	// k=0 keeps the engine frame passive (no root push, no L); the range
	// loop below drives the shared queue/state/result buffers itself.
	e := scratchFor(clock.qc).engineFor(ix, clock.qc, objs, q, 0, VariantINN)
	e.stats.Algorithm = "RANGE"

	if radius >= 0 && objs.Len() > 0 {
		e.queue.Push(0, qelem{node: objs.Tree().Root()})
		e.stats.MaxQueue = 1
		for e.queue.Len() > 0 {
			if e.err = clock.qc.Err(); e.err != nil {
				break
			}
			key, el := e.queue.Pop()
			if key > radius {
				break // min-ordered: everything remaining is out of range
			}
			if el.node != nil {
				if e.hint != nil {
					e.hintNode(el.node)
				}
				if el.node.IsLeaf() {
					for _, o := range el.node.Objects() {
						st := &e.states[o.ID]
						*st = objState{id: o.ID, refiner: ix.Refine(clock.qc, q, o.Vertex), epoch: e.epoch}
						st.iv = st.refiner.Interval()
						e.stats.Lookups++
						if st.iv.Lo <= radius {
							e.queue.Push(st.iv.Lo, qelem{obj: o.ID})
						}
					}
					if e.hint != nil {
						// Every object of the leaf whose interval straddles the
						// radius is refined below until it falls on one side: a
						// hint-taking index can race them in one batch.
						dsts := e.hintDsts[:0]
						for _, o := range el.node.Objects() {
							if st := &e.states[o.ID]; straddles(st, radius) {
								dsts = append(dsts, o.Vertex)
							}
						}
						e.hintRefine(dsts)
					}
				} else {
					for _, c := range el.node.Children() {
						if c == nil {
							continue
						}
						if lb := ix.RegionLowerBoundCtx(clock.qc, q, c.Cell()); lb <= radius {
							e.queue.Push(lb, qelem{node: c})
						}
					}
				}
				e.noteQueue()
				continue
			}
			st := &e.states[el.obj]
			// Refine until the interval falls on one side of the radius.
			// Out-of-range objects (proximity-bounded indexes) hold
			// [indexRadius, +Inf) forever and are excluded below.
			for straddles(st, radius) && clock.qc.Err() == nil {
				st.refiner.Step()
				e.stats.Refinements++
				st.iv = st.refiner.Interval()
			}
			if st.iv.Hi <= radius || (st.refiner.Done() && st.iv.Lo <= radius) {
				e.results = append(e.results, Neighbor{
					Object:   objs.resultAt(st.id),
					Interval: st.iv,
					Dist:     st.iv.Lo,
					Exact:    st.refiner.Done() || st.iv.Exact(),
				})
			}
		}
	}

	out := e.result()
	out.Sorted = false
	clock.finish(&out.Stats)
	return out
}

// straddles reports whether membership of st's object in the range is still
// undecided and more refinement can decide it.
func straddles(st *objState, radius float64) bool {
	return st.iv.Lo <= radius && st.iv.Hi > radius && !st.refiner.Done() && !st.refiner.OutOfRange()
}

// ObjectsInRange is the INE-style baseline for range search: Dijkstra from q
// truncated at radius, collecting objects at settled vertices. Used for
// cross-validation and as the comparison point in tests.
func ObjectsInRange(ix core.QueryIndex, objs *Objects, q graph.VertexID, radius float64) Result {
	clock := beginQuery(ix)
	g := ix.Network()
	tracker := ix.Tracker()
	stats := Stats{Algorithm: "RANGE-INE"}
	var res []Neighbor

	if radius >= 0 && objs.Len() > 0 {
		ws := &scratchFor(clock.qc).ws
		ws.reset(g.NumVertices())
		ws.setDist(q, 0)
		ws.frontier.Push(0, q)
		for ws.frontier.Len() > 0 {
			d, v := ws.frontier.Pop()
			if ws.settled(v) || d > ws.distOf(v) {
				continue
			}
			if d > radius {
				break
			}
			ws.settle(v)
			stats.Settled++
			for _, id := range objs.AtVertex(v) {
				res = append(res, Neighbor{
					Object:   objs.resultAt(id),
					Interval: core.Interval{Lo: d, Hi: d},
					Dist:     d,
					Exact:    true,
				})
			}
			tracker.TouchAdjacency(int(v), &clock.qc.IO)
			targets, weights := g.Neighbors(v)
			for i, t := range targets {
				stats.Relaxed++
				if nd := d + weights[i]; nd < ws.distOf(t) {
					ws.setDist(t, nd)
					ws.frontier.Push(nd, t)
				}
			}
		}
	}

	out := Result{Neighbors: res, Sorted: false, Stats: stats}
	clock.finish(&out.Stats)
	return out
}
