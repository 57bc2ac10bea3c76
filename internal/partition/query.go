package partition

import (
	"fmt"
	"math"

	"silc/internal/core"
	"silc/internal/graph"
)

var _ core.QueryIndex = (*Sharded)(nil)

// DistanceCtx fully refines (u, v) through core.ExactDistance and returns
// the exact global network distance. qc carries the query's router and I/O
// attribution.
func (s *Sharded) DistanceCtx(qc *core.QueryContext, u, v graph.VertexID) float64 {
	return core.ExactDistance(s, qc, u, v)
}

// DistanceIntervalCtx returns a zero-refinement interval on the global
// network distance: intra-cell pairs in self-contained cells cost one
// quadtree lookup, exactly like the monolithic index; cross-cell pairs
// combine the two endpoints' destination-label rows (labels.go) with the
// closure — an O(|B_p|·|B_q|) closure scan, |B_p|+|B_q| lookups only where a
// row is not in the table yet, and no progressive refinement at all. Every
// lookup is charged to qc.
func (s *Sharded) DistanceIntervalCtx(qc *core.QueryContext, u, v graph.VertexID) core.Interval {
	if u == v {
		return core.Interval{}
	}
	p, q := s.asn.CellOf[u], s.asn.CellOf[v]
	ul, vl := graph.VertexID(s.asn.LocalOf[u]), graph.VertexID(s.asn.LocalOf[v])
	if p == q && s.selfContained[p] {
		return s.qcell(p).DistanceIntervalCtx(qc, ul, vl)
	}
	lo, hi := math.Inf(1), math.Inf(1)
	if p == q {
		iv := s.qcell(p).DistanceIntervalCtx(qc, ul, vl)
		lo, hi = iv.Lo, iv.Hi
	}
	// True distance = min over boundary pairs (b1 ∈ B_p, b2 ∈ B_q) of
	// d_p(u,b1) + D(b1,b2) + d_q(b2,v) (and the direct route when p == q),
	// so the min of the pairs' lower bounds / upper bounds bounds it from
	// both sides.
	plo, _ := s.cl.Rows(p)
	qlo, _ := s.cl.Rows(q)
	nb := s.cl.NB()
	ivU := s.labelRow(qc, p, ul, false)
	ivV := s.labelRow(qc, q, vl, true)
	for i, iu := range ivU {
		if math.IsInf(iu.Lo, 1) {
			continue
		}
		row := s.cl.D[(int(plo)+i)*nb+int(qlo):]
		for j, iv := range ivV {
			d := row[j]
			if l := iu.Lo + d + iv.Lo; l < lo {
				lo = l
			}
			if h := iu.Hi + d + iv.Hi; h < hi {
				hi = h
			}
		}
	}
	return core.Interval{Lo: lo, Hi: hi}
}

// PathCtx retrieves an exact shortest path from u to v across cells: the
// within-cell prefix to the best exit gateway, the closure's hop chain
// (each hop either a within-cell segment or a single cross-cell edge), and
// the within-cell suffix from the best entry gateway. qc carries the query's
// router and I/O attribution.
func (s *Sharded) PathCtx(qc *core.QueryContext, u, v graph.VertexID) []graph.VertexID {
	if u == v {
		return []graph.VertexID{u}
	}
	p, q := s.asn.CellOf[u], s.asn.CellOf[v]
	ul, vl := graph.VertexID(s.asn.LocalOf[u]), graph.VertexID(s.asn.LocalOf[v])
	pcx, qcx := s.qcell(p), s.qcell(q)
	if p == q && s.selfContained[p] {
		return s.globalPath(p, pcx.PathCtx(qc, ul, vl))
	}
	rt := s.routerFor(qc, u)
	a, arg := rt.gateways(q)
	qlo, _ := s.cl.Rows(q)

	// One race over every way into v: the direct within-cell route (same cell
	// only, offset 0) and one route per entry gateway of q, offset by the
	// source's exact distance to it (+Inf offsets never run). In process that
	// is RaceCellRoutes over the cell's quadtrees; on a remote cell, one RPC.
	offs := make([]float64, 0, len(a)+1)
	us := make([]graph.VertexID, 0, len(a)+1)
	if p == q {
		offs, us = append(offs, 0), append(us, ul)
	}
	direct := len(offs) // candidates ahead of the gateway routes
	offs = append(offs, a...)
	for j := range a {
		us = append(us, graph.VertexID(s.asn.LocalOf[s.cl.B[qlo+int32(j)]]))
	}
	_, win := qcx.RaceRoutes(qc, vl, offs, us)
	switch {
	case win < 0:
		return nil // unreachable (prevented at build time by validation)
	case win < direct:
		return s.globalPath(p, pcx.PathCtx(qc, ul, vl))
	}
	bestEntry := qlo + int32(win-direct)
	exit := arg[bestEntry-qlo] // own-cell gateway row achieving A[bestEntry]
	path := s.globalPath(p, pcx.PathCtx(qc, ul, graph.VertexID(s.asn.LocalOf[s.cl.B[exit]])))
	if qc.Failed() {
		return nil // storage failure recorded on qc; segments may be empty
	}
	path = s.closureWalk(qc, path, exit, bestEntry)
	entryLocal := graph.VertexID(s.asn.LocalOf[s.cl.B[bestEntry]])
	suffix := s.globalPath(q, qcx.PathCtx(qc, entryLocal, vl))
	if qc.Failed() || len(suffix) == 0 {
		return nil
	}
	return append(path, suffix[1:]...)
}

// closureWalk appends the boundary-to-boundary portion of a shortest path
// (rows from → to, exclusive of from's vertex which path already ends with)
// by following the closure's hop chain.
func (s *Sharded) closureWalk(qc *core.QueryContext, path []graph.VertexID, from, to int32) []graph.VertexID {
	nb := s.cl.NB()
	cur := from
	for steps := 0; cur != to; steps++ {
		if steps > nb {
			panic(fmt.Sprintf("partition: closure hop chain from %d to %d does not terminate", from, to))
		}
		nxt := s.cl.Hop[int(cur)*nb+int(to)]
		cv, nv := s.cl.B[cur], s.cl.B[nxt]
		if c := s.asn.CellOf[cv]; c == s.asn.CellOf[nv] {
			// Consecutive boundary vertices in one cell: the segment between
			// them stays inside that cell, and the cell's own shortest path
			// has exactly the segment's cost.
			seg := s.globalPath(c, s.qcell(c).PathCtx(qc,
				graph.VertexID(s.asn.LocalOf[cv]), graph.VertexID(s.asn.LocalOf[nv])))
			if len(seg) == 0 {
				// Storage failure (recorded on qc by the cell index): the
				// caller bails on qc.Failed; a valid index never yields an
				// empty intra-cell boundary segment.
				return path
			}
			path = append(path, seg[1:]...)
		} else {
			// Different cells: consecutive boundary vertices with no interior
			// segment are joined by a single cross-cell edge.
			path = append(path, nv)
		}
		cur = nxt
	}
	return path
}

// globalPath maps a cell-local path onto global vertex ids in place: a
// cell's PathCtx, local or remote, returns a fresh slice its caller owns.
func (s *Sharded) globalPath(c int32, path []graph.VertexID) []graph.VertexID {
	for i, lv := range path {
		path[i] = s.asn.Verts[c][lv]
	}
	return path
}

// Via returns, for a refiner Refine handed out for a pair from src, the last
// vertex it committed to on the shortest path, in global ids, and the exact
// distance from src to it. ok is false when the refiner races routes (a
// cross-cell pair, a pair in a cell that is not self-contained, any pair over
// remote cells): it commits to no single path vertex.
func (s *Sharded) Via(src graph.VertexID, r core.DistanceRefiner) (v graph.VertexID, exact float64, ok bool) {
	cr, ok := r.(*core.Refiner)
	if !ok {
		return graph.NoVertex, 0, false
	}
	v, exact = cr.Via()
	return s.asn.Verts[s.asn.CellOf[src]][v], exact, true
}
