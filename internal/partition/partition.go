// Package partition implements the sharded SILC index: a spatial
// partitioner splits the network into P cells, each cell carries its own
// independently built SILC index (O(n_p) Dijkstra sources instead of O(n),
// O(n_p^1.5) Morton blocks instead of O(n^1.5)), and a boundary closure —
// exact network distances between the cells' border vertices, computed once
// at build time — stitches cross-partition queries back together.
//
// The routing identity the whole package rests on: any shortest path that
// leaves or enters a cell does so through a boundary vertex, and every
// maximal path segment between consecutive boundary vertices lies inside a
// single cell (an edge out of a cell-interior vertex cannot cross cells —
// crossing would make the vertex a boundary vertex). Therefore, with
// d_c(·,·) the within-cell distance of cell c and D(·,·) the global
// boundary-to-boundary closure,
//
//	d(u, b)  =  min over b1 ∈ B(cell(u)) of  d_p(u, b1) + D(b1, b)
//
// for every boundary vertex b (the "gateway closure" of u), and
//
//	d(u, v)  =  min( [cell(u) == cell(v)]·d_p(u, v),
//	                 min over b ∈ B(cell(v)) of  d(u, b) + d_q(b, v) )
//
// for every vertex v in cell q. Both are exact, not approximations; the
// equivalence tests assert sharded results match monolithic SILC and
// Dijkstra ground truth.
//
// The monolithic SILC index is the partition into one cell in the network's
// own vertex ids (identityMeta): no boundary, so both identities reduce to the
// cell's own d_p, and every query goes straight to its index. Every public
// engine holds a Sharded.
package partition

import (
	"fmt"
	"sort"

	"silc/internal/graph"
)

// Assignment maps the network's vertices onto P spatial cells. It is fully
// determined by the CellOf labeling; the remaining fields are derived views
// shared by the builder and the loader (see assignmentFromCellOf).
type Assignment struct {
	P int
	// CellOf maps each global vertex to its cell.
	CellOf []int32
	// LocalOf maps each global vertex to its dense id within its cell.
	LocalOf []int32
	// Verts lists each cell's global vertex ids in Morton-rank order; the
	// position in this list is the vertex's local id.
	Verts [][]graph.VertexID
	// CutEdges counts directed edges whose endpoints lie in different cells.
	CutEdges int
}

// KDCut partitions the network into p cells by a recursive kd-cut over the
// vertex coordinates: each recursion splits the current vertex set at the
// proportional median along its wider bounding-box axis, so cells stay
// spatially compact (low edge cut on road networks) and balanced within one
// vertex even when p is not a power of two. Cells are numbered in recursion
// order, which follows a Z-like pattern over space; within each cell local
// ids follow the global Morton order.
func KDCut(g *graph.Network, p int) (*Assignment, error) {
	n := g.NumVertices()
	if p < 1 {
		return nil, fmt.Errorf("partition: need at least 1 partition, got %d", p)
	}
	if p > n {
		return nil, fmt.Errorf("partition: %d partitions exceed %d vertices", p, n)
	}
	cellOf := make([]int32, n)
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	next := int32(0)
	kdcut(g, ids, p, &next, cellOf)
	return assignmentFromCellOf(g, cellOf, p)
}

// kdcut assigns cell labels to ids, consuming parts cell numbers from next.
func kdcut(g *graph.Network, ids []graph.VertexID, parts int, next *int32, cellOf []int32) {
	if parts == 1 {
		c := *next
		*next++
		for _, v := range ids {
			cellOf[v] = c
		}
		return
	}
	left := parts / 2
	// Split proportionally so every final cell receives ≥ 1 vertex (callers
	// guarantee len(ids) ≥ parts).
	at := len(ids) * left / parts
	if at < left {
		at = left
	}
	if rem := len(ids) - at; rem < parts-left {
		at = len(ids) - (parts - left)
	}

	var minX, minY, maxX, maxY float64
	for i, v := range ids {
		pt := g.Point(v)
		if i == 0 || pt.X < minX {
			minX = pt.X
		}
		if i == 0 || pt.X > maxX {
			maxX = pt.X
		}
		if i == 0 || pt.Y < minY {
			minY = pt.Y
		}
		if i == 0 || pt.Y > maxY {
			maxY = pt.Y
		}
	}
	byX := maxX-minX >= maxY-minY
	sort.Slice(ids, func(i, j int) bool {
		a, b := g.Point(ids[i]), g.Point(ids[j])
		if byX {
			if a.X != b.X {
				return a.X < b.X
			}
			if a.Y != b.Y {
				return a.Y < b.Y
			}
		} else {
			if a.Y != b.Y {
				return a.Y < b.Y
			}
			if a.X != b.X {
				return a.X < b.X
			}
		}
		return ids[i] < ids[j]
	})
	kdcut(g, ids[:at], left, next, cellOf)
	kdcut(g, ids[at:], parts-left, next, cellOf)
}

// assignmentFromCellOf derives the full Assignment from a cell labeling.
// It is the single source of truth for local-id ordering (global Morton
// order within each cell), so an assignment reconstructed by the loader is
// bit-identical to the one the builder produced.
func assignmentFromCellOf(g *graph.Network, cellOf []int32, p int) (*Assignment, error) {
	n := g.NumVertices()
	asn := &Assignment{
		P:       p,
		CellOf:  cellOf,
		LocalOf: make([]int32, n),
		Verts:   make([][]graph.VertexID, p),
	}
	for _, v := range g.MortonOrder() {
		c := cellOf[v]
		if c < 0 || int(c) >= p {
			return nil, fmt.Errorf("partition: vertex %d has cell %d outside [0,%d)", v, c, p)
		}
		asn.LocalOf[v] = int32(len(asn.Verts[c]))
		asn.Verts[c] = append(asn.Verts[c], v)
	}
	for c := 0; c < p; c++ {
		if len(asn.Verts[c]) == 0 {
			return nil, fmt.Errorf("partition: cell %d is empty", c)
		}
	}
	for v := 0; v < n; v++ {
		targets, _ := g.Neighbors(graph.VertexID(v))
		for _, t := range targets {
			if cellOf[v] != cellOf[t] {
				asn.CutEdges++
			}
		}
	}
	return asn, nil
}

// subnetwork builds cell c's induced subgraph: the cell's vertices (local
// ids in Verts order) plus every intra-cell edge.
func subnetwork(g *graph.Network, asn *Assignment, c int) (*graph.Network, error) {
	b := graph.NewBuilder()
	for _, v := range asn.Verts[c] {
		b.AddVertex(g.Point(v))
	}
	for _, v := range asn.Verts[c] {
		targets, weights := g.Neighbors(v)
		for i, t := range targets {
			if asn.CellOf[t] == int32(c) {
				b.AddEdge(graph.VertexID(asn.LocalOf[v]), graph.VertexID(asn.LocalOf[t]), weights[i])
			}
		}
	}
	return b.Build()
}
