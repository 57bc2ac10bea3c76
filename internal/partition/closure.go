package partition

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"silc/internal/graph"
	"silc/internal/sssp"
)

// Closure is the boundary-vertex distance closure: the exact global network
// distance between every ordered pair of boundary vertices (vertices with at
// least one edge to or from another cell), plus a next-boundary-hop matrix
// for path reconstruction. It is computed once at build time — one Dijkstra
// per boundary vertex, run until every boundary vertex is settled — and is
// what lets per-cell indexes answer cross-partition queries exactly.
type Closure struct {
	// B lists the boundary vertices grouped by cell, Morton-ordered within
	// each cell; the position in B is the vertex's closure row.
	B []graph.VertexID
	// RowOf maps a global vertex to its closure row, -1 for interior
	// vertices.
	RowOf []int32
	// CellStart[c]..CellStart[c+1] is cell c's row range.
	CellStart []int32
	// D is the row-major |B|×|B| matrix of exact global distances.
	D []float64
	// Hop is row-major |B|×|B|: Hop[i*|B|+j] is the closure row of the first
	// boundary vertex strictly after B[i] on the shortest path B[i]→B[j]
	// (j itself when the path has no intermediate boundary vertex). The
	// segment between consecutive boundary vertices either lies inside one
	// cell or is a single cross-cell edge, which is all path reconstruction
	// needs.
	Hop []int32
}

// NB returns the boundary-vertex count.
func (c *Closure) NB() int { return len(c.B) }

// At returns the exact global distance from boundary row i to row j.
func (c *Closure) At(i, j int) float64 { return c.D[i*len(c.B)+j] }

// Rows returns cell's closure row range [lo, hi).
func (c *Closure) Rows(cell int32) (lo, hi int32) {
	return c.CellStart[cell], c.CellStart[cell+1]
}

// SizeBytes returns the in-memory footprint of the distance and hop
// matrices (the closure's dominant storage cost).
func (c *Closure) SizeBytes() int64 {
	nb := int64(len(c.B))
	return nb*nb*8 + nb*nb*4
}

// boundaryRows computes the boundary-vertex list (grouped by cell, Morton-
// ordered within each — the iteration order of asn.Verts) and the global
// row index. Deterministic given the assignment, so the loader reconstructs
// it instead of deserializing.
func boundaryRows(g *graph.Network, asn *Assignment) (b []graph.VertexID, rowOf []int32, cellStart []int32) {
	n := g.NumVertices()
	isB := make([]bool, n)
	for v := 0; v < n; v++ {
		targets, _ := g.Neighbors(graph.VertexID(v))
		for _, t := range targets {
			if asn.CellOf[v] != asn.CellOf[t] {
				isB[v] = true
				isB[t] = true
			}
		}
	}
	rowOf = make([]int32, n)
	for i := range rowOf {
		rowOf[i] = -1
	}
	cellStart = make([]int32, asn.P+1)
	for c := 0; c < asn.P; c++ {
		cellStart[c] = int32(len(b))
		for _, v := range asn.Verts[c] {
			if isB[v] {
				rowOf[v] = int32(len(b))
				b = append(b, v)
			}
		}
	}
	cellStart[asn.P] = int32(len(b))
	return b, rowOf, cellStart
}

// buildClosure runs one Search per boundary vertex (parallel over sources)
// and fills the distance and hop matrices. It fails if any boundary vertex
// cannot reach another — the sharded build's strong-connectivity check at
// the cell-graph level.
func buildClosure(g *graph.Network, asn *Assignment, parallelism int) (*Closure, error) {
	b, rowOf, cellStart := boundaryRows(g, asn)
	nb := len(b)
	cl := &Closure{
		B:         b,
		RowOf:     rowOf,
		CellStart: cellStart,
		D:         make([]float64, nb*nb),
		Hop:       make([]int32, nb*nb),
	}
	if nb == 0 {
		return cl, nil
	}
	n := g.NumVertices()
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nb {
		workers = nb
	}
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sr sssp.Search
			// fb[v] is the closure row of the first boundary vertex strictly
			// after the source on its shortest path to the settled vertex v,
			// -1 when there is none. It is derived as v settles, from v's
			// parent, which settled before it.
			fb := make([]int32, n)
			for {
				i := int(next.Add(1) - 1)
				if i >= nb {
					return
				}
				src := b[i]
				row := cl.D[i*nb : (i+1)*nb]
				hop := cl.Hop[i*nb : (i+1)*nb]
				for j := range row {
					row[j] = math.Inf(1)
				}
				sr.Start(g, src, graph.NoVertex)
				for left := nb; left > 0; {
					v, d, ok := sr.Next(sssp.Inf)
					if !ok {
						break
					}
					f := int32(-1)
					if p := sr.Parent(v); p != graph.NoVertex {
						if f = fb[p]; f < 0 {
							f = rowOf[v]
						}
					}
					fb[v] = f
					if r := rowOf[v]; r >= 0 {
						row[r], hop[r] = d, f
						left--
					}
				}
				hop[i] = int32(i)
				for j, d := range row {
					if math.IsInf(d, 1) {
						errs[w] = fmt.Errorf("partition: boundary vertex %d unreachable from %d; the network must be strongly connected", b[j], src)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// validateCoverage checks that, within every cell, each vertex both reaches
// and is reached by at least one of the cell's boundary vertices through
// intra-cell edges. Combined with closure finiteness between boundary
// vertices this proves the whole network strongly connected; without it an
// isolated interior pocket would silently answer +Inf instead of failing
// the build the way the monolithic index does.
func validateCoverage(g *graph.Network, asn *Assignment, cl *Closure, cells []*cell) error {
	for c := 0; c < asn.P; c++ {
		lo, hi := cl.Rows(int32(c))
		if lo == hi {
			return fmt.Errorf("partition: cell %d has no boundary vertices; the network is not connected across cells", c)
		}
		sub := cells[c].ix.Network()
		nc := sub.NumVertices()
		seeds := make([]graph.VertexID, 0, hi-lo)
		for r := lo; r < hi; r++ {
			seeds = append(seeds, graph.VertexID(asn.LocalOf[cl.B[r]]))
		}
		// Forward: gateways reach every cell vertex.
		if miss := unreachedFrom(nc, seeds, func(v graph.VertexID) []graph.VertexID {
			t, _ := sub.Neighbors(v)
			return t
		}); miss >= 0 {
			return fmt.Errorf("partition: vertex %d unreachable from cell %d's boundary; the network must be strongly connected",
				asn.Verts[c][miss], c)
		}
		// Reverse: every cell vertex reaches a gateway.
		rev := make([][]graph.VertexID, nc)
		for v := 0; v < nc; v++ {
			targets, _ := sub.Neighbors(graph.VertexID(v))
			for _, t := range targets {
				rev[t] = append(rev[t], graph.VertexID(v))
			}
		}
		if miss := unreachedFrom(nc, seeds, func(v graph.VertexID) []graph.VertexID {
			return rev[v]
		}); miss >= 0 {
			return fmt.Errorf("partition: vertex %d cannot reach cell %d's boundary; the network must be strongly connected",
				asn.Verts[c][miss], c)
		}
	}
	return nil
}

// unreachedFrom runs a multi-source reachability sweep and returns the first
// unreached vertex, or -1 when all n vertices are covered.
func unreachedFrom(n int, seeds []graph.VertexID, adj func(graph.VertexID) []graph.VertexID) int {
	seen := make([]bool, n)
	stack := make([]graph.VertexID, 0, len(seeds))
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range adj(v) {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			return v
		}
	}
	return -1
}
