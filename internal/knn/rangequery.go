package knn

import (
	"silc/internal/core"
	"silc/internal/graph"
)

// RangeSearch returns every object within network distance radius of q —
// the paper's "general framework" claim instantiated for a second query
// type. It runs on the kNN engine itself: object-index blocks prune on
// their interval lower bound, objects accept on δ⁺ <= radius, reject on
// δ⁻ > radius, and refine only while their interval straddles the radius.
// Results are unordered; distances are intervals refined just far enough to
// decide membership.
func RangeSearch(ix core.QueryIndex, objs *Objects, q graph.VertexID, radius float64) Result {
	return RangeSearchCtx(ix, core.NewQueryContext(), objs, q, radius)
}

// RangeSearchCtx is RangeSearch under a caller-supplied query context, so
// the caller attributes I/O and can cancel the search between refinements:
// the best-first engine's VariantRange with the radius as its distance bound.
func RangeSearchCtx(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, radius float64) Result {
	return SearchSpec(ix, qc, objs, q, Spec{K: objs.Len(), Variant: VariantRange, MaxDist: radius})
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
