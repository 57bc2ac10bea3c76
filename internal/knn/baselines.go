package knn

import (
	"cmp"
	"slices"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/pqueue"
)

// dijkstraWS is the reusable workspace of one graph expansion: tentative
// distances, discovery/settlement marks, and the frontier heap. The marks
// are epoch-stamped, so arming the workspace for a new expansion is O(1) —
// which is what lets IER run one point-to-point search per candidate without
// an O(n) clear (let alone an O(n) allocation) per call.
type dijkstraWS struct {
	dist     []float64
	seen     []uint32 // dist[v] is valid iff seen[v] == epoch
	done     []uint32 // v is settled iff done[v] == epoch
	epoch    uint32
	frontier pqueue.Min[graph.VertexID]
}

// reset arms the workspace for one expansion over n vertices.
func (w *dijkstraWS) reset(n int) {
	if cap(w.dist) < n {
		w.dist = make([]float64, n)
		w.seen = make([]uint32, n)
		w.done = make([]uint32, n)
	} else {
		w.dist = w.dist[:n]
		w.seen = w.seen[:n]
		w.done = w.done[:n]
	}
	w.epoch++
	if w.epoch == 0 { // uint32 wrap: clear stale stamps
		clear(w.seen)
		clear(w.done)
		w.epoch = 1
	}
	w.frontier.Reset()
}

// distOf returns v's tentative distance, +Inf when undiscovered.
func (w *dijkstraWS) distOf(v graph.VertexID) float64 {
	if w.seen[v] == w.epoch {
		return w.dist[v]
	}
	return inf
}

func (w *dijkstraWS) setDist(v graph.VertexID, d float64) {
	w.dist[v] = d
	w.seen[v] = w.epoch
}

func (w *dijkstraWS) settled(v graph.VertexID) bool { return w.done[v] == w.epoch }
func (w *dijkstraWS) settle(v graph.VertexID)       { w.done[v] = w.epoch }

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
	maxDist := spec.MaxDist
	g := ix.Network()
	tracker := ix.Tracker()
	stats := Stats{Algorithm: "INE", K: k}
	var cancelErr error

	n := g.NumVertices()
	ws := &sc.ws
	ws.reset(n)
	best := &sc.best
	best.InitMax() // k best objects by network distance

	if k > 0 && objs.Len() > 0 {
		ws.setDist(q, 0)
		ws.frontier.Push(0, q)
	}
	for ws.frontier.Len() > 0 {
		if cancelErr = clock.qc.Err(); cancelErr != nil {
			break
		}
		d, v := ws.frontier.Pop()
		if ws.settled(v) || d > ws.distOf(v) {
			continue
		}
		if d > maxDist {
			break // distance-bounded expansion is complete
		}
		if best.Len() == k && d > best.TopKey() {
			break // every remaining vertex is farther than the kth neighbor
		}
		ws.settle(v)
		stats.Settled++
		for _, id := range objs.AtVertex(v) {
			nb := Neighbor{
				Object:   objs.resultAt(id),
				Interval: core.Interval{Lo: d, Hi: d},
				Dist:     d,
				Exact:    true,
			}
			if best.Len() < k {
				best.Push(d, nb)
			} else if d < best.TopKey() {
				best.Pop()
				best.Push(d, nb)
			}
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
		if ws.frontier.Len() > stats.MaxQueue {
			stats.MaxQueue = ws.frontier.Len()
		}
	}

	res := Result{Neighbors: drainAscending(sc, best), Sorted: true, Stats: stats, Err: cancelErr}
	if n := len(res.Neighbors); n > 0 {
		res.Stats.DkFinal = res.Neighbors[n-1].Dist
	}
	clock.finish(&res.Stats)
	return res
}

// IERSpec is the "incremental Euclidean restriction" baseline: objects
// stream in Euclidean-distance order from the PMR quadtree; each candidate's
// network distance is computed with a point-to-point Dijkstra (as in the
// paper); the stream stops once the next Euclidean distance exceeds the
// kth-best network distance, which is sound because network distance
// dominates Euclidean distance. It runs under a caller-supplied query
// context (cancellation + I/O attribution; nil = a fresh one) and Spec;
// candidates beyond Spec.MaxDist are discarded and the Euclidean stream
// stops at the bound. Epsilon is ignored (the baseline is exact).
func IERSpec(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, spec Spec) Result {
	return ier(ix, qc, objs, q, spec, false, "IER")
}

// ier runs IER; with astar the per-candidate Dijkstra is A* under the
// admissible Euclidean heuristic, the ablation ablation_test.go measures.
func ier(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, spec Spec, astar bool, name string) Result {
	clock := beginQueryWith(ix, qc)
	sc := scratchFor(clock.qc)
	k := spec.K
	maxDist := spec.MaxDist
	g := ix.Network()
	stats := Stats{Algorithm: name, K: k}
	var cancelErr error

	best := &sc.best
	best.InitMax()
	if k > 0 {
		cursor := objs.Tree().EuclideanBrowser(g.Point(q))
		for {
			if cancelErr = clock.qc.Err(); cancelErr != nil {
				break
			}
			o, eucl, ok := cursor.Next()
			if !ok {
				break
			}
			if eucl > maxDist {
				break // network distance ≥ Euclidean: nothing ahead qualifies
			}
			if best.Len() == k && eucl >= best.TopKey() {
				break
			}
			d := ierNetworkDistance(ix, clock.qc, &sc.ws, q, o.Vertex, astar, &stats)
			if d > maxDist {
				continue
			}
			nb := Neighbor{
				Object:   objs.resultAt(o.ID), // tree objects carry dense slots
				Interval: core.Interval{Lo: d, Hi: d},
				Dist:     d,
				Exact:    true,
			}
			if best.Len() < k {
				best.Push(d, nb)
			} else if d < best.TopKey() {
				best.Pop()
				best.Push(d, nb)
			}
		}
	}

	res := Result{Neighbors: drainAscending(sc, best), Sorted: true, Stats: stats, Err: cancelErr}
	if n := len(res.Neighbors); n > 0 {
		res.Stats.DkFinal = res.Neighbors[n-1].Dist
	}
	clock.finish(&res.Stats)
	return res
}

// ierNetworkDistance runs a point-to-point search on the paged network,
// charging adjacency-page accesses to the query's context. The workspace is
// re-armed per call in O(1), so IER's dominant per-candidate cost is the
// expansion itself, not workspace churn.
func ierNetworkDistance(ix core.QueryIndex, qc *core.QueryContext, ws *dijkstraWS, s, t graph.VertexID, astar bool, stats *Stats) float64 {
	stats.AStarCalls++
	if s == t {
		return 0
	}
	g := ix.Network()
	tracker := ix.Tracker()
	target := g.Point(t)
	h := func(v graph.VertexID) float64 {
		if !astar {
			return 0
		}
		return g.Point(v).Dist(target)
	}

	ws.reset(g.NumVertices())
	ws.setDist(s, 0)
	ws.frontier.Push(h(s), s)
	for ws.frontier.Len() > 0 {
		if qc.Err() != nil {
			return inf // cancelled mid-search; the caller surfaces the error
		}
		_, v := ws.frontier.Pop()
		if ws.settled(v) {
			continue
		}
		ws.settle(v)
		stats.Settled++
		if v == t {
			return ws.dist[t]
		}
		tracker.TouchAdjacency(int(v), &qc.IO)
		d := ws.dist[v]
		targets, weights := g.Neighbors(v)
		for i, u := range targets {
			stats.Relaxed++
			if nd := d + weights[i]; nd < ws.distOf(u) {
				ws.setDist(u, nd)
				ws.frontier.Push(nd+h(u), u)
			}
		}
	}
	return inf
}

// drainAscending empties the k-best max-heap into a fresh ascending-order
// slice, staging through the arena's drain buffer so the only allocation is
// the returned result itself.
func drainAscending(sc *scratch, best *pqueue.Indexed[Neighbor]) []Neighbor {
	sc.drainNb = best.AppendItems(sc.drainNb[:0])
	slices.SortFunc(sc.drainNb, func(a, b Neighbor) int { return cmp.Compare(a.Dist, b.Dist) })
	if len(sc.drainNb) == 0 {
		return nil
	}
	out := make([]Neighbor, len(sc.drainNb))
	copy(out, sc.drainNb)
	return out
}
