package knn

import (
	"cmp"
	"slices"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/pmr"
)

// INESpec is the "incremental network expansion" baseline of Papadias et
// al.: Dijkstra from the query vertex over the disk-resident network,
// collecting objects at settled vertices into a buffer of the k best,
// halting once the expansion frontier passes the kth-best distance. Its cost
// scales with the number of edges closer than the kth neighbor. It runs
// under a caller-supplied query context (cancellation + I/O attribution; nil
// = a fresh one) and Spec. The expansion truncates at Spec.MaxDist; Epsilon
// is ignored (the baseline is exact, which satisfies every ε).
func INESpec(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, spec Spec) Result {
	clock := beginQueryWith(ix, qc)
	sc := scratchFor(clock.qc)
	k := spec.K
	g := ix.Network()
	tracker := ix.Tracker()
	stats := Stats{Algorithm: "INE", K: k}
	var cancelErr error

	sc.best.InitMax() // k best objects by network distance
	if k > 0 && objs.Len() > 0 {
		sr := &sc.search
		sr.Start(g, q, graph.NoVertex)
		for {
			if cancelErr = clock.qc.Err(); cancelErr != nil {
				break
			}
			// The expansion is complete at the distance bound, and every
			// vertex beyond the kth neighbor is farther than it.
			limit := spec.MaxDist
			if sc.best.Len() == k {
				limit = min(limit, sc.best.TopKey())
			}
			v, d, ok := sr.Next(limit)
			if !ok {
				break
			}
			for _, id := range objs.AtVertex(v) {
				sc.keep(k, objs.resultAt(id), d)
			}
			tracker.TouchAdjacency(int(v), &clock.qc.IO)
		}
		stats.Settled, stats.Relaxed, stats.MaxQueue = sr.Settled, sr.Relaxed, sr.MaxQueue
	}
	return sc.exactResult(clock, stats, cancelErr)
}

// IERSpec is the "incremental Euclidean restriction" baseline: objects
// stream in Euclidean-distance order from the PMR quadtree; each candidate's
// network distance is computed with a point-to-point Dijkstra (as in the
// paper); the stream stops once the next Euclidean distance exceeds the
// kth-best network distance, which is sound because network distance
// dominates Euclidean distance. It runs under a caller-supplied query
// context (cancellation + I/O attribution; nil = a fresh one) and Spec;
// candidates beyond Spec.MaxDist, and candidates the search never reaches,
// are discarded, and the Euclidean stream stops at the bound. Epsilon is
// ignored (the baseline is exact).
func IERSpec(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, spec Spec) Result {
	clock := beginQueryWith(ix, qc)
	sc := scratchFor(clock.qc)
	k := spec.K
	g := ix.Network()
	tracker := ix.Tracker()
	stats := Stats{Algorithm: "IER", K: k}
	var cancelErr error

	sc.best.InitMax()
	if k > 0 {
		cursor := objs.Tree().EuclideanBrowser(g.Point(q))
		sr := &sc.search
		for {
			if cancelErr = clock.qc.Err(); cancelErr != nil {
				break
			}
			o, eucl, ok := cursor.Next()
			if !ok {
				break
			}
			if eucl > spec.MaxDist {
				break // network distance ≥ Euclidean: nothing ahead qualifies
			}
			if sc.best.Len() == k && eucl >= sc.best.TopKey() {
				break
			}
			// The candidate's network distance: a point-to-point search on
			// the paged network, charging each settled vertex's adjacency
			// page to the query but the target's, whose arcs it never reads.
			d := 0.0
			if o.Vertex != q {
				d = inf
				sr.Start(g, q, graph.NoVertex)
				for {
					if cancelErr = clock.qc.Err(); cancelErr != nil {
						break
					}
					v, dv, ok := sr.Next(inf)
					if !ok {
						break
					}
					if v == o.Vertex {
						d = dv
						break
					}
					tracker.TouchAdjacency(int(v), &clock.qc.IO)
				}
				stats.Settled += sr.Settled
				stats.Relaxed += sr.Relaxed
			}
			if cancelErr != nil {
				break
			}
			if d == inf || d > spec.MaxDist {
				continue // unreachable, or beyond the bound
			}
			sc.keep(k, objs.resultAt(o.ID), d) // tree objects carry dense slots
		}
	}
	return sc.exactResult(clock, stats, cancelErr)
}

// keep offers an object at exact network distance d to the k best.
func (sc *scratch) keep(k int, o pmr.Object, d float64) {
	nb := Neighbor{Object: o, Interval: core.Interval{Lo: d, Hi: d}, Dist: d, Exact: true}
	if sc.best.Len() < k {
		sc.best.Push(d, nb)
	} else if d < sc.best.TopKey() {
		sc.best.Pop()
		sc.best.Push(d, nb)
	}
}

// exactResult empties the k best into a fresh ascending-order result,
// staging through the arena's drain buffer so the only allocation is the
// returned neighbors themselves.
func (sc *scratch) exactResult(clock queryClock, stats Stats, err error) Result {
	sc.drainNb = sc.best.AppendItems(sc.drainNb[:0])
	slices.SortFunc(sc.drainNb, func(a, b Neighbor) int { return cmp.Compare(a.Dist, b.Dist) })
	res := Result{Sorted: true, Stats: stats, Err: err}
	if n := len(sc.drainNb); n > 0 {
		res.Neighbors = slices.Clone(sc.drainNb)
		res.Stats.DkFinal = res.Neighbors[n-1].Dist
	}
	clock.finish(&res.Stats)
	return res
}
