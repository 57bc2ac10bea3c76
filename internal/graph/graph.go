// Package graph implements the spatial-network substrate of the library: a
// directed graph whose vertices are embedded in the unit square and whose
// edge weights represent travel cost along road segments.
//
// The representation is a compressed sparse row (CSR) adjacency list plus a
// Morton-sorted vertex permutation shared by every shortest-path quadtree
// built over the network (the sort order depends only on vertex positions,
// so it is computed once per network rather than once per source vertex).
package graph

import (
	"errors"
	"fmt"
	"sort"

	"silc/internal/geom"
)

// VertexID identifies a vertex of a Network. IDs are dense: 0..NumVertices-1.
type VertexID int32

// NoVertex is the sentinel for "no vertex".
const NoVertex VertexID = -1

// Network is an immutable spatial network.
type Network struct {
	pts     []geom.Point
	codes   []geom.Code
	offsets []int32
	targets []VertexID
	weights []float64

	order []VertexID // vertex ids sorted by Morton code
	rank  []int32    // vertex id -> position in order
}

// NumVertices returns the number of vertices.
func (g *Network) NumVertices() int { return len(g.pts) }

// NumEdges returns the number of directed edges.
func (g *Network) NumEdges() int { return len(g.targets) }

// Point returns the position of v.
func (g *Network) Point(v VertexID) geom.Point { return g.pts[v] }

// Code returns the Morton code of v's grid cell.
func (g *Network) Code(v VertexID) geom.Code { return g.codes[v] }

// Euclid returns the Euclidean distance between two vertices.
func (g *Network) Euclid(u, v VertexID) float64 { return g.pts[u].Dist(g.pts[v]) }

// Degree returns the out-degree of v.
func (g *Network) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-neighbors of v and the corresponding edge
// weights. The returned slices alias the network's internal storage and must
// not be modified.
func (g *Network) Neighbors(v VertexID) ([]VertexID, []float64) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// EdgeWeight returns the weight of the directed edge (u,v) and whether the
// edge exists. Parallel edges are permitted; the minimum weight is returned,
// matching what any shortest path would use.
func (g *Network) EdgeWeight(u, v VertexID) (float64, bool) {
	targets, weights := g.Neighbors(u)
	best, found := 0.0, false
	for i, t := range targets {
		if t == v && (!found || weights[i] < best) {
			best, found = weights[i], true
		}
	}
	return best, found
}

// MortonOrder returns the vertex ids sorted by Morton code. The slice aliases
// internal storage and must not be modified.
func (g *Network) MortonOrder() []VertexID { return g.order }

// MortonRank returns the position of v in the Morton-sorted order.
func (g *Network) MortonRank(v VertexID) int32 { return g.rank[v] }

// NearestVertex returns the vertex nearest to p by Euclidean distance using
// a linear scan. Query snapping in the public API goes through the object
// index instead; this is a convenience for small networks and tests.
func (g *Network) NearestVertex(p geom.Point) VertexID {
	best := NoVertex
	bestD := -1.0
	for v := range g.pts {
		d := g.pts[v].DistSq(p)
		if best == NoVertex || d < bestD {
			best, bestD = VertexID(v), d
		}
	}
	return best
}

// Edge is one directed edge, used by Builder and serialization.
type Edge struct {
	From, To VertexID
	Weight   float64
}

// Builder accumulates vertices and edges and assembles a validated Network.
type Builder struct {
	pts   []geom.Point
	edges []Edge
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddVertex appends a vertex at p and returns its id.
func (b *Builder) AddVertex(p geom.Point) VertexID {
	b.pts = append(b.pts, p)
	return VertexID(len(b.pts) - 1)
}

// AddEdge appends the directed edge (u,v) with weight w.
func (b *Builder) AddEdge(u, v VertexID, w float64) {
	b.edges = append(b.edges, Edge{From: u, To: v, Weight: w})
}

// AddBiEdge appends both directions of an undirected road segment.
func (b *Builder) AddBiEdge(u, v VertexID, w float64) {
	b.AddEdge(u, v, w)
	b.AddEdge(v, u, w)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.pts) }

// Build validates the accumulated data and produces a Network.
//
// Validation enforces the preconditions of the SILC framework: positive
// finite edge weights, edge endpoints in range, no self loops, and at most
// one vertex per Morton grid cell (required for the shortest-path quadtree
// decomposition to terminate with single-colored leaves).
func (b *Builder) Build() (*Network, error) {
	n := len(b.pts)
	if n == 0 {
		return nil, errors.New("graph: network has no vertices")
	}
	codes := make([]geom.Code, n)
	for i, p := range b.pts {
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
			return nil, fmt.Errorf("graph: vertex %d at %v outside the unit square", i, p)
		}
		codes[i] = p.Code()
	}
	order := make([]VertexID, n)
	for i := range order {
		order[i] = VertexID(i)
	}
	sort.Slice(order, func(i, j int) bool { return codes[order[i]] < codes[order[j]] })
	for i := 1; i < n; i++ {
		if codes[order[i]] == codes[order[i-1]] {
			return nil, fmt.Errorf("graph: vertices %d and %d share Morton cell %x",
				order[i-1], order[i], uint64(codes[order[i]]))
		}
	}
	rank := make([]int32, n)
	for i, v := range order {
		rank[v] = int32(i)
	}

	deg := make([]int32, n+1)
	for _, e := range b.edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("graph: edge %v has out-of-range endpoint", e)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self loop at vertex %d", e.From)
		}
		if !(e.Weight > 0) {
			return nil, fmt.Errorf("graph: edge %d->%d has non-positive weight %v", e.From, e.To, e.Weight)
		}
		deg[e.From+1]++
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	targets := make([]VertexID, len(b.edges))
	weights := make([]float64, len(b.edges))
	fill := make([]int32, n)
	copy(fill, offsets[:n])
	for _, e := range b.edges {
		i := fill[e.From]
		targets[i] = e.To
		weights[i] = e.Weight
		fill[e.From]++
	}

	return &Network{
		pts:     b.pts,
		codes:   codes,
		offsets: offsets,
		targets: targets,
		weights: weights,
		order:   order,
		rank:    rank,
	}, nil
}

// LargestComponent returns the subnetwork induced by the largest weakly
// connected component of g, with vertices renumbered densely, and a mapping
// from new ids to original ids. Road networks built with AddBiEdge are
// symmetric, so weak connectivity coincides with strong connectivity.
func LargestComponent(g *Network) (*Network, []VertexID, error) {
	n := g.NumVertices()
	// Undirected closure adjacency for the component sweep.
	undirected := make([][]VertexID, n)
	for v := 0; v < n; v++ {
		targets, _ := g.Neighbors(VertexID(v))
		for _, t := range targets {
			undirected[v] = append(undirected[v], t)
			undirected[t] = append(undirected[t], VertexID(v))
		}
	}
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []VertexID
	bestComp, bestSize := int32(-1), 0
	nextComp := int32(0)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		size := 0
		queue = append(queue[:0], VertexID(s))
		comp[s] = nextComp
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, t := range undirected[v] {
				if comp[t] < 0 {
					comp[t] = nextComp
					queue = append(queue, t)
				}
			}
		}
		if size > bestSize {
			bestComp, bestSize = nextComp, size
		}
		nextComp++
	}

	remap := make([]VertexID, n)
	var oldIDs []VertexID
	b := NewBuilder()
	for v := 0; v < n; v++ {
		if comp[v] == bestComp {
			remap[v] = b.AddVertex(g.Point(VertexID(v)))
			oldIDs = append(oldIDs, VertexID(v))
		} else {
			remap[v] = NoVertex
		}
	}
	for v := 0; v < n; v++ {
		if comp[v] != bestComp {
			continue
		}
		targets, weights := g.Neighbors(VertexID(v))
		for i, t := range targets {
			if comp[t] == bestComp {
				b.AddEdge(remap[v], remap[t], weights[i])
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, oldIDs, nil
}
