// Package sssp implements the shortest-path primitives the SILC framework is
// built from (single-source Dijkstra with first-hop labels) and compares
// against (Search: the one incremental Dijkstra/A* behind point-to-point
// queries and the INE and IER baselines).
package sssp

import (
	"math"

	"silc/internal/geom"
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
// partition closure and the T1 path tables run one per vertex they cover;
// each parallel worker owns a Workspace).
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
	Dist    float64 // Inf if the target is unreachable
	Settled int     // vertices permanently labeled ("visited" in the paper)
}

// ShortestPath runs Dijkstra from s with early termination at t. Its Settled
// count reproduces the paper's motivating measurement (Dijkstra visits 3191
// of 4233 vertices to find a 76-edge path).
func ShortestPath(g *graph.Network, s, t graph.VertexID) PointToPoint {
	return searchTo(g, s, t, graph.NoVertex)
}

// AStar runs A* from s to t with the Euclidean-distance heuristic, which is
// admissible and consistent because every edge weight is at least the
// Euclidean length of the segment.
func AStar(g *graph.Network, s, t graph.VertexID) PointToPoint {
	return searchTo(g, s, t, t)
}

func searchTo(g *graph.Network, s, t, goal graph.VertexID) PointToPoint {
	var sr Search
	sr.Start(g, s, goal)
	for {
		v, d, ok := sr.Next(Inf)
		if !ok {
			return PointToPoint{Dist: Inf, Settled: sr.Settled}
		}
		if v == t {
			return PointToPoint{Dist: d, Settled: sr.Settled}
		}
	}
}

// Search is one incremental shortest-path expansion from a source: Dijkstra,
// or A* toward a goal under the Euclidean heuristic. It is the graph search
// behind the baselines: point-to-point queries (ShortestPath, AStar, IER's
// per-candidate distances) and INE's network expansion.
//
// Next settles one vertex per call. The arcs of the vertex one call settles
// are relaxed at the start of the following call, so a caller can stop at a
// vertex (the target, a distance bound) without reading its arcs, and can do
// its own per-vertex work (collect objects, charge an adjacency page) before
// they are read. The marks are epoch-stamped, so Start re-arms a reused
// Search in O(1) rather than clearing or reallocating per-vertex state.
type Search struct {
	g       *graph.Network
	dist    []float64
	seen    []uint32 // dist[v] is valid iff seen[v] == epoch
	done    []uint32 // v is settled iff done[v] == epoch
	epoch   uint32
	heap    pqueue.Min[graph.VertexID]
	astar   bool
	goal    geom.Point
	pending graph.VertexID // settled by the last Next, arcs not yet relaxed

	Settled  int // vertices settled since Start
	Relaxed  int // arcs relaxed since Start
	MaxQueue int // peak queue length, measured after each vertex's relaxation
}

// Start arms the search from src over g. With goal != graph.NoVertex it is
// A*: the queue is keyed by distance plus the Euclidean distance to goal.
func (s *Search) Start(g *graph.Network, src, goal graph.VertexID) {
	n := g.NumVertices()
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.seen = make([]uint32, n)
		s.done = make([]uint32, n)
	} else {
		s.dist = s.dist[:n]
		s.seen = s.seen[:n]
		s.done = s.done[:n]
	}
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: clear stale stamps, beyond n too
		clear(s.seen[:cap(s.seen)])
		clear(s.done[:cap(s.done)])
		s.epoch = 1
	}
	s.g = g
	s.heap.Reset()
	s.astar = goal != graph.NoVertex
	if s.astar {
		s.goal = g.Point(goal)
	}
	s.pending = graph.NoVertex
	s.Settled, s.Relaxed, s.MaxQueue = 0, 0, 0
	s.dist[src] = 0
	s.seen[src] = s.epoch
	s.heap.Push(s.key(0, src), src)
}

func (s *Search) key(d float64, v graph.VertexID) float64 {
	if s.astar {
		return d + s.g.Point(v).Dist(s.goal)
	}
	return d
}

// Next relaxes the arcs of the vertex the previous call settled, then
// settles the unsettled vertex of least key and returns it with its distance
// from the source. It reports false, settling nothing, when no reachable
// vertex is left or when the least key exceeds limit (Inf for none). A
// Dijkstra search's key is the distance; an A* search's adds the Euclidean
// distance to the goal.
func (s *Search) Next(limit float64) (graph.VertexID, float64, bool) {
	if v := s.pending; v != graph.NoVertex {
		s.pending = graph.NoVertex
		d := s.dist[v]
		targets, weights := s.g.Neighbors(v)
		for i, u := range targets {
			s.Relaxed++
			if nd := d + weights[i]; s.seen[u] != s.epoch || nd < s.dist[u] {
				s.dist[u] = nd
				s.seen[u] = s.epoch
				s.heap.Push(s.key(nd, u), u)
			}
		}
		s.MaxQueue = max(s.MaxQueue, s.heap.Len())
	}
	for s.heap.Len() > 0 {
		key, v := s.heap.Pop()
		if s.done[v] == s.epoch {
			continue // a stale entry: v settled from a smaller key
		}
		if key > limit {
			s.heap.Push(key, v)
			return graph.NoVertex, 0, false
		}
		s.done[v] = s.epoch
		s.Settled++
		s.pending = v
		return v, s.dist[v], true
	}
	return graph.NoVertex, 0, false
}
