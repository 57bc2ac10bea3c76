// Package sssp implements the shortest-path primitives the SILC framework is
// built from (single-source Dijkstra with first-hop labels) and compares
// against (point-to-point Dijkstra and A*, the engines behind the INE and
// IER baselines).
package sssp

import (
	"math"

	"silc/internal/graph"
	"silc/internal/pqueue"
)

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// Tree is the result of a single-source shortest-path computation. The
// slices are indexed by vertex id. FirstHop[v] is the first vertex after the
// source on the shortest path source->v; it is the quantity the SILC
// coloring stores. For the source itself and for unreachable vertices,
// Parent and FirstHop are graph.NoVertex and Dist is 0 or Inf respectively.
//
// Trees produced by a Workspace alias the workspace's buffers and are valid
// only until its next Run.
type Tree struct {
	Source   graph.VertexID
	Dist     []float64
	Parent   []graph.VertexID
	FirstHop []graph.VertexID
	// Settled is the number of vertices permanently labeled.
	Settled int
}

// PathTo reconstructs the shortest path from the tree's source to t,
// inclusive of both endpoints. It returns nil if t is unreachable.
func (t *Tree) PathTo(dst graph.VertexID) []graph.VertexID {
	if math.IsInf(t.Dist[dst], 1) {
		return nil
	}
	var rev []graph.VertexID
	for v := dst; v != graph.NoVertex; v = t.Parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Workspace holds reusable buffers for repeated Dijkstra runs (the
// partition closure and the distance oracle run one per vertex they
// cover; each parallel worker owns a Workspace).
type Workspace struct {
	dist     []float64
	parent   []graph.VertexID
	firstHop []graph.VertexID
	heap     pqueue.Min[graph.VertexID]
}

// NewWorkspace returns a workspace for networks of up to n vertices.
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		dist:     make([]float64, n),
		parent:   make([]graph.VertexID, n),
		firstHop: make([]graph.VertexID, n),
	}
}

// Run computes the full shortest-path tree from source. The returned Tree
// aliases the workspace's buffers. A vertex is pushed only with a key below
// its current distance, so its pushes carry strictly decreasing keys and
// every entry but the last is stale: d > dist[v] alone skips them, with no
// settled flags.
func (ws *Workspace) Run(g *graph.Network, source graph.VertexID) *Tree {
	n := g.NumVertices()
	if len(ws.dist) < n {
		*ws = *NewWorkspace(n)
	}
	dist, parent, firstHop := ws.dist[:n], ws.parent[:n], ws.firstHop[:n]
	for i := range dist {
		dist[i] = Inf
		parent[i] = graph.NoVertex
		firstHop[i] = graph.NoVertex
	}
	h := &ws.heap
	h.Reset()

	dist[source] = 0
	h.Push(0, source)
	count := 0
	for h.Len() > 0 {
		d, v := h.Pop()
		if d > dist[v] {
			continue
		}
		count++
		targets, weights := g.Neighbors(v)
		for i, t := range targets {
			nd := d + weights[i]
			if nd < dist[t] {
				dist[t] = nd
				parent[t] = v
				if v == source {
					firstHop[t] = t
				} else {
					firstHop[t] = firstHop[v]
				}
				h.Push(nd, t)
			}
		}
	}
	return &Tree{Source: source, Dist: dist, Parent: parent, FirstHop: firstHop, Settled: count}
}

// Dijkstra computes the full shortest-path tree from source with freshly
// allocated buffers.
func Dijkstra(g *graph.Network, source graph.VertexID) *Tree {
	t := NewWorkspace(g.NumVertices()).Run(g, source)
	// Detach from the (otherwise discarded) workspace for clarity.
	return t
}

// PointToPoint is the result of a point-to-point query.
type PointToPoint struct {
	Dist    float64
	Path    []graph.VertexID // inclusive of both endpoints; nil if not found
	Settled int              // vertices permanently labeled ("visited" in the paper)
	Relaxed int              // edges relaxed
	Found   bool
}

// ShortestPath runs Dijkstra from s with early termination at t. Its Settled
// count reproduces the paper's motivating measurement (Dijkstra visits 3191
// of 4233 vertices to find a 76-edge path).
func ShortestPath(g *graph.Network, s, t graph.VertexID) PointToPoint {
	return pointToPoint(g, s, t, nil)
}

// AStar runs A* from s to t with the Euclidean-distance heuristic, which is
// admissible and consistent because every edge weight is at least the
// Euclidean length of the segment. This is the engine the IER baseline uses
// for its per-candidate network-distance computations.
func AStar(g *graph.Network, s, t graph.VertexID) PointToPoint {
	target := g.Point(t)
	h := func(v graph.VertexID) float64 { return g.Point(v).Dist(target) }
	return pointToPoint(g, s, t, h)
}

func pointToPoint(g *graph.Network, s, t graph.VertexID, heuristic func(graph.VertexID) float64) PointToPoint {
	n := g.NumVertices()
	dist := make([]float64, n)
	parent := make([]graph.VertexID, n)
	settled := make([]bool, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = graph.NoVertex
	}
	var h pqueue.Min[graph.VertexID]
	dist[s] = 0
	if heuristic != nil {
		h.Push(heuristic(s), s)
	} else {
		h.Push(0, s)
	}
	res := PointToPoint{Dist: Inf}
	for h.Len() > 0 {
		_, v := h.Pop()
		if settled[v] {
			continue
		}
		settled[v] = true
		res.Settled++
		if v == t {
			res.Found = true
			res.Dist = dist[t]
			break
		}
		d := dist[v]
		targets, weights := g.Neighbors(v)
		for i, u := range targets {
			nd := d + weights[i]
			res.Relaxed++
			if nd < dist[u] {
				dist[u] = nd
				parent[u] = v
				key := nd
				if heuristic != nil {
					key += heuristic(u)
				}
				h.Push(key, u)
			}
		}
	}
	if res.Found {
		var rev []graph.VertexID
		for v := t; v != graph.NoVertex; v = parent[v] {
			rev = append(rev, v)
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		res.Path = rev
	}
	return res
}
