// Package oracle implements the stored-path models the paper compares SILC
// against in its space/query-time trade-off table (p.11): explicit
// all-pairs path storage (O(n³) space, O(1) query) and next-hop matrices
// (O(n²) space, O(k) path retrieval). The table's ε-approximate row is
// SILC's own refiner stopped at δ⁺ ≤ (1+ε)·δ⁻ (core.ApproxDistance), which
// needs no extra state.
package oracle

import (
	"fmt"
	"math"

	"silc/internal/graph"
	"silc/internal/sssp"
)

// NextHop is the O(n²) routing-table baseline: for every (u,v) the first
// vertex after u on the shortest path. Path retrieval walks the table hop by
// hop; distances sum edge weights along the walk.
type NextHop struct {
	g   *graph.Network
	n   int
	hop []graph.VertexID // n*n, row-major by source
}

// BuildNextHop runs one Dijkstra per vertex and materializes the table.
func BuildNextHop(g *graph.Network) (*NextHop, error) {
	n := g.NumVertices()
	m := &NextHop{g: g, n: n, hop: make([]graph.VertexID, n*n)}
	ws := sssp.NewWorkspace(n)
	for s := 0; s < n; s++ {
		tree := ws.Run(g, graph.VertexID(s))
		row := m.hop[s*n : (s+1)*n]
		for v := 0; v < n; v++ {
			if v != s && math.IsInf(tree.Dist[v], 1) {
				return nil, fmt.Errorf("oracle: vertex %d unreachable from %d", v, s)
			}
			row[v] = tree.FirstHop[v]
		}
	}
	return m, nil
}

// SizeBytes returns the table's storage footprint (4 bytes per entry).
func (m *NextHop) SizeBytes() int64 { return int64(m.n) * int64(m.n) * 4 }

// Next returns the first hop from u toward v (v itself when u == v).
func (m *NextHop) Next(u, v graph.VertexID) graph.VertexID {
	if u == v {
		return v
	}
	return m.hop[int(u)*m.n+int(v)]
}

// Path reconstructs the shortest path from u to v, inclusive.
func (m *NextHop) Path(u, v graph.VertexID) []graph.VertexID {
	path := []graph.VertexID{u}
	for cur := u; cur != v; {
		cur = m.Next(cur, v)
		path = append(path, cur)
	}
	return path
}

// Distance walks the table summing edge weights.
func (m *NextHop) Distance(u, v graph.VertexID) float64 {
	total := 0.0
	for cur := u; cur != v; {
		next := m.Next(cur, v)
		w, ok := m.g.EdgeWeight(cur, next)
		if !ok {
			panic("oracle: next-hop table names a non-edge")
		}
		total += w
		cur = next
	}
	return total
}

// ExplicitPaths is the O(n³) strawman: every shortest path stored verbatim,
// giving O(1) distance and O(1) path access. MaxVerticesExplicit caps the
// build, since the representation is cubic by design.
type ExplicitPaths struct {
	n     int
	dist  []float64 // n*n
	paths [][]graph.VertexID
}

// MaxVerticesExplicit is the largest network ExplicitPaths will materialize.
const MaxVerticesExplicit = 1500

// BuildExplicitPaths materializes every shortest path.
func BuildExplicitPaths(g *graph.Network) (*ExplicitPaths, error) {
	n := g.NumVertices()
	if n > MaxVerticesExplicit {
		return nil, fmt.Errorf("oracle: %d vertices exceeds the explicit-path cap of %d", n, MaxVerticesExplicit)
	}
	e := &ExplicitPaths{
		n:     n,
		dist:  make([]float64, n*n),
		paths: make([][]graph.VertexID, n*n),
	}
	ws := sssp.NewWorkspace(n)
	for s := 0; s < n; s++ {
		tree := ws.Run(g, graph.VertexID(s))
		for v := 0; v < n; v++ {
			if v != s && math.IsInf(tree.Dist[v], 1) {
				return nil, fmt.Errorf("oracle: vertex %d unreachable from %d", v, s)
			}
			e.dist[s*n+v] = tree.Dist[v]
			e.paths[s*n+v] = tree.PathTo(graph.VertexID(v))
		}
	}
	return e, nil
}

// Distance returns the stored distance.
func (e *ExplicitPaths) Distance(u, v graph.VertexID) float64 { return e.dist[int(u)*e.n+int(v)] }

// Path returns the stored path (shared storage; do not modify).
func (e *ExplicitPaths) Path(u, v graph.VertexID) []graph.VertexID { return e.paths[int(u)*e.n+int(v)] }

// SizeBytes returns the storage footprint: 8 bytes per distance plus 4 bytes
// per stored path vertex.
func (e *ExplicitPaths) SizeBytes() int64 {
	total := int64(e.n) * int64(e.n) * 8
	for _, p := range e.paths {
		total += int64(len(p)) * 4
	}
	return total
}
