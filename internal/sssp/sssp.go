// Package sssp implements the shortest-path primitives the SILC framework is
// built from and compares against. Search is the one graph search loop: an
// incremental Dijkstra/A* behind point-to-point queries, the INE and IER
// baselines, the partitioned index's boundary closure and its per-query
// source label (a search kept inside the source's cell). Workspace.Run and
// Dijkstra drive it to exhaustion and hand back the whole tree, first hops
// included.
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

// Workspace holds reusable buffers for repeated full-tree runs (the T1 path
// tables run one per vertex they cover).
type Workspace struct {
	sr       Search
	dist     []float64
	parent   []graph.VertexID
	firstHop []graph.VertexID
}

// NewWorkspace returns a workspace for networks of up to n vertices.
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		dist:     make([]float64, n),
		parent:   make([]graph.VertexID, n),
		firstHop: make([]graph.VertexID, n),
	}
}

// Run computes the full shortest-path tree from source: a Search run to
// exhaustion, each vertex's parent and first hop read off as it settles
// (its parent settled before it). The returned Tree aliases the workspace's
// buffers.
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
	sr := &ws.sr
	sr.Start(g, source, graph.NoVertex)
	for {
		v, d, ok := sr.Next(Inf)
		if !ok {
			break
		}
		dist[v] = d
		if p := sr.Parent(v); p == source {
			parent[v], firstHop[v] = p, v
		} else if p != graph.NoVertex {
			parent[v], firstHop[v] = p, firstHop[p]
		}
	}
	return &Tree{Source: source, Dist: dist, Parent: parent, FirstHop: firstHop, Settled: sr.Settled}
}

// Dijkstra computes the full shortest-path tree from source with freshly
// allocated buffers.
func Dijkstra(g *graph.Network, source graph.VertexID) *Tree {
	return NewWorkspace(g.NumVertices()).Run(g, source)
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
// behind every query-time and closure search: point-to-point queries
// (ShortestPath, AStar, IER's per-candidate distances), INE's network
// expansion, full trees (Workspace.Run), and the partitioned index's
// boundary closure and source label. Only the SILC build's rank-space
// search in internal/core is apart.
//
// Next settles one vertex per call. The arcs of the vertex one call settles
// are relaxed at the start of the following call, so a caller can stop at a
// vertex (the target, a distance bound) without reading its arcs, and can do
// its own per-vertex work (collect the objects at it) before
// they are read. Each improving relaxation records the vertex's predecessor,
// so a settled vertex's Parent is final and the tree can be read off in
// settle order. The marks are epoch-stamped, so Start re-arms a reused
// Search in O(1) rather than clearing or reallocating per-vertex state.
type Search struct {
	g      *graph.Network
	dist   []float64
	parent []graph.VertexID // valid where dist is
	seen   []uint32         // dist[v] is valid iff seen[v] == epoch
	done   []uint32         // v is settled iff done[v] == epoch
	epoch  uint32
	heap   pqueue.Min[graph.VertexID]
	astar  bool
	goal   geom.Point
	// region, when set by StartWithin, confines the search to the vertices
	// v with region[v] == keep: arcs to any other vertex are not relaxed.
	region  []int32
	keep    int32
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
		s.parent = make([]graph.VertexID, n)
		s.seen = make([]uint32, n)
		s.done = make([]uint32, n)
	} else {
		s.dist = s.dist[:n]
		s.parent = s.parent[:n]
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
	s.region = nil
	s.pending = graph.NoVertex
	s.Settled, s.Relaxed, s.MaxQueue = 0, 0, 0
	s.dist[src] = 0
	s.parent[src] = graph.NoVertex
	s.seen[src] = s.epoch
	s.heap.Push(s.key(0, src), src)
}

// StartWithin arms a Dijkstra search from src that stays inside src's
// region, the vertices v with region[v] == region[src]: it relaxes no arc
// leaving the region, so it settles exactly what the subgraph the region
// induces reaches from src, at that subgraph's distances. region is indexed
// by vertex and read, not copied.
func (s *Search) StartWithin(g *graph.Network, src graph.VertexID, region []int32) {
	s.Start(g, src, graph.NoVertex)
	s.region, s.keep = region, region[src]
}

// Parent returns the vertex v was last reached from: for a settled v, its
// predecessor on the shortest path from the source (graph.NoVertex for the
// source itself). Unspecified for a vertex the search has not reached.
func (s *Search) Parent(v graph.VertexID) graph.VertexID { return s.parent[v] }

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
			if s.region != nil && s.region[u] != s.keep {
				continue
			}
			s.Relaxed++
			if nd := d + weights[i]; s.seen[u] != s.epoch || nd < s.dist[u] {
				s.dist[u] = nd
				s.parent[u] = v
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
