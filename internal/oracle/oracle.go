// Package oracle implements the alternative shortest-path storage models the
// paper compares SILC against in its space/query-time trade-off table
// (p.11): explicit all-pairs path storage (O(n³) space, O(1) query),
// next-hop matrices (O(n²) space, O(k) path retrieval), and an
// ε-approximate network distance oracle built from path-coherent pairs —
// the well-separated-pair construction sketched in the talk's "Path
// Coherence Beyond SILC" section (the PCP framework of the authors'
// follow-on work). The pair oracle is kept only as the T1 table's
// comparison row (internal/bench), the way INE and IER are kept as kNN
// baselines: the library's ε-approximate distance is the engine's own
// refiner stopped at δ⁺ ≤ (1+ε)·δ⁻ (core.ApproxDistance), which needs no
// extra state.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"silc/internal/core"
	"silc/internal/geom"
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

// pairKey identifies an ordered cell pair of the decomposition.
type pairKey struct {
	aCode, bCode   geom.Code
	aLevel, bLevel uint8
}

// DistanceOracle answers network-distance queries within a relative error ε
// from O(n/ε²)-style storage. It decomposes the vertex set into
// path-coherent cell pairs: a pair (A, B) is emitted once the network radii
// of A and B are small relative to the distance between their
// representatives, at which point that single representative distance
// serves every (u, v) in A x B — the dumbbell of the PCP framework.
//
// The construction requires a symmetric network (undirected road networks),
// since its error argument applies the triangle inequality in both
// directions.
type DistanceOracle struct {
	g       *graph.Network
	eps     float64
	codes   []geom.Code      // vertex codes in Morton order
	order   []graph.VertexID // Morton order
	pairs   map[pairKey]float64
	numRads int
}

// BuildDistanceOracle constructs the oracle with relative error eps,
// using ix — monolithic or partitioned — for the exact distances the
// construction needs.
func BuildDistanceOracle(ix core.QueryIndex, eps float64) (*DistanceOracle, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("oracle: eps %v out of range (0,1)", eps)
	}
	g := ix.Network()
	if err := checkSymmetric(g); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	o := &DistanceOracle{
		g:     g,
		eps:   eps,
		codes: make([]geom.Code, n),
		order: g.MortonOrder(),
		pairs: make(map[pairKey]float64),
	}
	for i, v := range o.order {
		o.codes[i] = g.Code(v)
	}
	b := &oracleBuilder{o: o, ix: ix, radii: make(map[geom.Cell]cellInfo)}
	root := span{cell: geom.RootCell(), lo: 0, hi: n}
	b.decompose(root, root)
	o.numRads = len(b.radii)
	return o, nil
}

func checkSymmetric(g *graph.Network) error {
	for _, e := range g.Edges() {
		w, ok := g.EdgeWeight(e.To, e.From)
		if !ok || math.Abs(w-e.Weight) > 1e-12*(1+w) {
			return fmt.Errorf("oracle: edge %d->%d not symmetric; the distance oracle requires an undirected network", e.From, e.To)
		}
	}
	return nil
}

// span is a quadtree cell plus its vertex range in Morton order.
type span struct {
	cell   geom.Cell
	lo, hi int
}

func (s span) size() int { return s.hi - s.lo }

type cellInfo struct {
	rep    graph.VertexID
	radius float64
}

type oracleBuilder struct {
	o     *DistanceOracle
	ix    core.QueryIndex
	radii map[geom.Cell]cellInfo
}

// info returns (computing on demand) the representative and network radius
// of a cell: the maximum network distance between the representative and any
// vertex of the cell, in either direction (the network is symmetric).
func (b *oracleBuilder) info(s span) cellInfo {
	if ci, ok := b.radii[s.cell]; ok {
		return ci
	}
	rep := b.o.order[(s.lo+s.hi)/2]
	radius := 0.0
	for i := s.lo; i < s.hi; i++ {
		v := b.o.order[i]
		if v == rep {
			continue
		}
		if d := core.ExactDistance(b.ix, nil, rep, v); d > radius {
			radius = d
		}
	}
	ci := cellInfo{rep: rep, radius: radius}
	b.radii[s.cell] = ci
	return ci
}

func (b *oracleBuilder) decompose(a, c span) {
	if a.size() == 0 || c.size() == 0 {
		return
	}
	if a.cell == c.cell && a.size() == 1 {
		return // the only pair is (u,u), answered directly
	}
	if a.cell != c.cell {
		ia, ic := b.info(a), b.info(c)
		d := core.ExactDistance(b.ix, nil, ia.rep, ic.rep)
		err := ia.radius + ic.radius
		if err <= b.o.eps*(d-err) {
			b.o.pairs[pairKey{a.cell.Code, c.cell.Code, a.cell.Level, c.cell.Level}] = d
			return
		}
	}
	// Split the coarser cell; ties split the first. The query replays this
	// exact rule, so it revisits the same pair sequence.
	if a.cell.Level <= c.cell.Level {
		for _, child := range b.children(a) {
			b.decompose(child, c)
		}
	} else {
		for _, child := range b.children(c) {
			b.decompose(a, child)
		}
	}
}

func (b *oracleBuilder) children(s span) []span {
	if s.cell.Level >= geom.MaxLevel {
		panic("oracle: cannot split a unit cell with multiple vertices")
	}
	out := make([]span, 0, 4)
	at := s.lo
	for i := 0; i < 4; i++ {
		child := s.cell.Child(i)
		end := child.End()
		hi := at + sort.Search(s.hi-at, func(j int) bool { return b.o.codes[at+j] >= end })
		if hi > at {
			out = append(out, span{cell: child, lo: at, hi: hi})
		}
		at = hi
	}
	return out
}

// SizeBytes returns the oracle's storage footprint: 26 bytes per pair (two
// packed cells plus one distance).
func (o *DistanceOracle) SizeBytes() int64 { return int64(len(o.pairs)) * 26 }

// Epsilon returns the configured relative error bound.
func (o *DistanceOracle) Epsilon() float64 { return o.eps }

// Distance returns an approximation of the network distance from u to v with
// relative error at most ε.
func (o *DistanceOracle) Distance(u, v graph.VertexID) float64 {
	if u == v {
		return 0
	}
	cu, cv := o.g.Code(u), o.g.Code(v)
	a, c := geom.RootCell(), geom.RootCell()
	for {
		if d, ok := o.pairs[pairKey{a.Code, c.Code, a.Level, c.Level}]; ok {
			return d
		}
		if a.Level <= c.Level {
			a = childContaining(a, cu)
		} else {
			c = childContaining(c, cv)
		}
	}
}

func childContaining(cell geom.Cell, code geom.Code) geom.Cell {
	if cell.Level >= geom.MaxLevel {
		panic("oracle: query descended past a unit cell; pair table incomplete")
	}
	span := geom.Span(cell.Level + 1)
	i := int(uint64(code-cell.Code) / span)
	return cell.Child(i)
}
