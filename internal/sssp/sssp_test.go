package sssp

import (
	"math"
	"math/rand"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/testkit"
)

// smallNetworks returns a varied set of small networks, one-way ones among
// them, for oracle comparison.
func smallNetworks(t *testing.T) []*graph.Network {
	t.Helper()
	var nets []*graph.Network
	grid, err := graph.GenerateGrid(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, grid)
	for seed := int64(0); seed < 4; seed++ {
		g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 7, Cols: 7, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, g)
		r, err := testkit.GenerateRandomConnected(40, 30, 0.4, seed+100)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, r)
	}
	ring, err := graph.GenerateRingRadial(3, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, ring, oneWayNetwork(t, 60, 240, 1), oneWayNetwork(t, 90, 300, 2))
	return nets
}

// TestDijkstraMatchesFloydWarshall checks the one search against an oracle
// that shares none of its code: full trees, and searches kept inside a
// region. For the latter each network is split at its middle x into two
// regions; a search from s inside s's region must settle exactly what the
// region's induced subgraph reaches, at Floyd-Warshall's distances over
// that subgraph, and the parents it records must spell paths inside the
// region whose weights are those distances. Some same-region pairs must be
// farther apart inside their region than in the whole network, or the split
// tests nothing.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	var sr Search
	detours := 0
	for gi, g := range smallNetworks(t) {
		want := testkit.FloydWarshall(g)
		for s := 0; s < g.NumVertices(); s++ {
			tree := Dijkstra(g, graph.VertexID(s))
			for v := 0; v < g.NumVertices(); v++ {
				got := tree.Dist[v]
				if math.Abs(got-want[s][v]) > 1e-9 {
					t.Fatalf("net %d: dist(%d,%d) = %v want %v", gi, s, v, got, want[s][v])
				}
			}
		}

		region, local, subs := splitRegions(t, g)
		wantIn := [2][][]float64{testkit.FloydWarshall(subs[0]), testkit.FloydWarshall(subs[1])}
		for s := 0; s < g.NumVertices(); s++ {
			src := graph.VertexID(s)
			in := wantIn[region[s]]
			sr.StartWithin(g, src, region)
			settled := 0
			for {
				v, d, ok := sr.Next(Inf)
				if !ok {
					break
				}
				settled++
				if region[v] != region[s] {
					t.Fatalf("net %d: search from %d left its region at %d", gi, s, v)
				}
				if w := in[local[s]][local[v]]; math.Abs(d-w) > 1e-9 {
					t.Fatalf("net %d: in-region dist(%d,%d) = %v want %v", gi, s, v, d, w)
				}
				var path []graph.VertexID
				for u := v; u != graph.NoVertex; u = sr.Parent(u) {
					if region[u] != region[s] || len(path) > g.NumVertices() {
						t.Fatalf("net %d: parent chain %d→%d leaves the region or loops: %v", gi, s, v, path)
					}
					path = append([]graph.VertexID{u}, path...)
				}
				if path[0] != src || math.Abs(testkit.PathWeight(g, path)-d) > 1e-9 {
					t.Fatalf("net %d: parents give path %v of weight %v for dist(%d,%d) = %v",
						gi, path, testkit.PathWeight(g, path), s, v, d)
				}
			}
			reach := 0
			for v, w := range want[s] {
				if region[v] != region[s] {
					continue
				}
				wi := in[local[s]][local[v]]
				if !math.IsInf(wi, 1) {
					reach++
				}
				if wi > w+1e-9 {
					detours++
				}
			}
			if settled != reach {
				t.Fatalf("net %d: search from %d settled %d, its region reaches %d", gi, s, settled, reach)
			}
		}
	}
	if detours == 0 {
		t.Fatal("no pair is farther apart inside its region than in the network")
	}
	t.Logf("%d same-region pairs are farther apart inside their region", detours)
}

// splitRegions labels each vertex of g 0 or 1 by which side of the middle
// x it lies on, and returns each region's induced subgraph with every
// vertex's id in it.
func splitRegions(t *testing.T, g *graph.Network) (region []int32, local []graph.VertexID, subs [2]*graph.Network) {
	t.Helper()
	n := g.NumVertices()
	lo, hi := math.Inf(1), math.Inf(-1)
	for v := 0; v < n; v++ {
		x := g.Point(graph.VertexID(v)).X
		lo, hi = min(lo, x), max(hi, x)
	}
	region = make([]int32, n)
	local = make([]graph.VertexID, n)
	bs := [2]*graph.Builder{graph.NewBuilder(), graph.NewBuilder()}
	for v := 0; v < n; v++ {
		if g.Point(graph.VertexID(v)).X > (lo+hi)/2 {
			region[v] = 1
		}
		local[v] = bs[region[v]].AddVertex(g.Point(graph.VertexID(v)))
	}
	for _, e := range testkit.Edges(g) {
		if r := region[e.From]; r == region[e.To] {
			bs[r].AddEdge(local[e.From], local[e.To], e.Weight)
		}
	}
	for r, b := range bs {
		sub, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		subs[r] = sub
	}
	return region, local, subs
}

func TestDijkstraTreeInvariants(t *testing.T) {
	for gi, g := range smallNetworks(t) {
		s := graph.VertexID(gi % g.NumVertices())
		tree := Dijkstra(g, s)
		if tree.Dist[s] != 0 {
			t.Fatalf("net %d: Dist[source]=%v", gi, tree.Dist[s])
		}
		if tree.FirstHop[s] != graph.NoVertex {
			t.Fatalf("net %d: FirstHop[source] set", gi)
		}
		for v := 0; v < g.NumVertices(); v++ {
			vv := graph.VertexID(v)
			if vv == s || math.IsInf(tree.Dist[v], 1) {
				continue
			}
			// Parent edge exists and distances are consistent along it.
			p := tree.Parent[v]
			w, ok := g.EdgeWeight(p, vv)
			if !ok {
				t.Fatalf("net %d: parent edge %d->%d missing", gi, p, v)
			}
			if math.Abs(tree.Dist[p]+w-tree.Dist[v]) > 1e-9 {
				t.Fatalf("net %d: dist inconsistent at %d", gi, v)
			}
			// FirstHop is the second vertex of the reconstructed path and a
			// neighbor of the source.
			path := tree.PathTo(vv)
			if len(path) < 2 || path[0] != s || path[len(path)-1] != vv {
				t.Fatalf("net %d: bad path %v", gi, path)
			}
			if path[1] != tree.FirstHop[v] {
				t.Fatalf("net %d: FirstHop[%d]=%d, path says %d", gi, v, tree.FirstHop[v], path[1])
			}
			if testkit.NeighborIndex(g, s, tree.FirstHop[v]) < 0 {
				t.Fatalf("net %d: FirstHop[%d]=%d is not a neighbor of source", gi, v, tree.FirstHop[v])
			}
			// The path's summed weight equals the reported distance.
			if math.Abs(testkit.PathWeight(g, path)-tree.Dist[v]) > 1e-9 {
				t.Fatalf("net %d: path weight mismatch at %d", gi, v)
			}
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := graph.NewBuilder()
	a := b.AddVertex(pt(0.1, 0.1))
	c := b.AddVertex(pt(0.2, 0.1))
	d := b.AddVertex(pt(0.8, 0.8))
	b.AddBiEdge(a, c, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree := Dijkstra(g, a)
	if !math.IsInf(tree.Dist[d], 1) {
		t.Fatalf("Dist to isolated vertex = %v", tree.Dist[d])
	}
	if tree.PathTo(d) != nil {
		t.Fatal("PathTo unreachable should be nil")
	}
	if tree.Settled != 2 {
		t.Fatalf("Settled = %d want 2", tree.Settled)
	}
}

func TestWorkspaceReuse(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 8, Cols: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(g.NumVertices())
	fresh := Dijkstra(g, 0)
	want0 := append([]float64(nil), fresh.Dist...)
	// Run from several sources and re-run from 0: results must match a fresh
	// computation (no stale state).
	for s := 0; s < 5; s++ {
		ws.Run(g, graph.VertexID(s))
	}
	got := ws.Run(g, 0)
	for v := range want0 {
		if math.Abs(got.Dist[v]-want0[v]) > 1e-12 {
			t.Fatalf("workspace reuse corrupted dist[%d]: %v vs %v", v, got.Dist[v], want0[v])
		}
	}
}

func TestShortestPathAndAStarAgree(t *testing.T) {
	for gi, g := range smallNetworks(t) {
		rng := rand.New(rand.NewSource(int64(gi)))
		oracle := testkit.FloydWarshall(g)
		for trial := 0; trial < 30; trial++ {
			s := graph.VertexID(rng.Intn(g.NumVertices()))
			d := graph.VertexID(rng.Intn(g.NumVertices()))
			dij := ShortestPath(g, s, d)
			ast := AStar(g, s, d)
			want := oracle[s][d]
			if math.IsInf(want, 1) {
				if !math.IsInf(dij.Dist, 1) || !math.IsInf(ast.Dist, 1) {
					t.Fatalf("net %d: found path to unreachable", gi)
				}
				continue
			}
			if math.Abs(dij.Dist-want) > 1e-9 {
				t.Fatalf("net %d: dijkstra %v want %v", gi, dij.Dist, want)
			}
			if math.Abs(ast.Dist-want) > 1e-9 {
				t.Fatalf("net %d: astar %v want %v", gi, ast.Dist, want)
			}
			if ast.Settled > dij.Settled {
				t.Fatalf("net %d %d->%d: A* settled %d, Dijkstra %d", gi, s, d, ast.Settled, dij.Settled)
			}
		}
	}
}

func TestAStarSettlesNoMoreThanDijkstra(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 20, Cols: 20, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	totalDij, totalAst := 0, 0
	for trial := 0; trial < 25; trial++ {
		s := graph.VertexID(rng.Intn(g.NumVertices()))
		d := graph.VertexID(rng.Intn(g.NumVertices()))
		totalDij += ShortestPath(g, s, d).Settled
		totalAst += AStar(g, s, d).Settled
	}
	// The Euclidean heuristic must focus the search: across a batch of
	// queries A* should settle strictly fewer vertices in total.
	if totalAst >= totalDij {
		t.Fatalf("A* settled %d vs Dijkstra %d; heuristic not helping", totalAst, totalDij)
	}
}

func TestDijkstraVisitsLargeFraction(t *testing.T) {
	// The paper's motivation (p.3): point-to-point Dijkstra settles a large
	// share of the network even for a moderate-length path. Check the shape:
	// a corner-to-corner query on a lattice settles >50% of vertices.
	g, err := graph.GenerateGrid(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	dst := graph.VertexID(g.NumVertices() - 1)
	res := ShortestPath(g, 0, dst)
	if math.IsInf(res.Dist, 1) {
		t.Fatal("path not found")
	}
	frac := float64(res.Settled) / float64(g.NumVertices())
	if frac < 0.5 {
		t.Fatalf("Dijkstra settled only %.0f%%, expected the pathological >50%%", frac*100)
	}
	if n := len(Dijkstra(g, 0).PathTo(dst)); n >= res.Settled {
		t.Fatalf("path length %d should be far below settled %d", n, res.Settled)
	}
}

func pt(x, y float64) geom.Point {
	return geom.Point{X: x, Y: y}
}

func TestWorkspaceGrowsForLargerNetwork(t *testing.T) {
	small, err := graph.GenerateGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := graph.GenerateGrid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(small.NumVertices())
	ws.Run(small, 0)
	tree := ws.Run(big, 0) // must grow transparently
	if tree.Settled != big.NumVertices() {
		t.Fatalf("settled %d of %d after growth", tree.Settled, big.NumVertices())
	}
	want := Dijkstra(big, 0)
	for v := range want.Dist {
		if math.Abs(tree.Dist[v]-want.Dist[v]) > 1e-12 {
			t.Fatalf("dist[%d] differs after workspace growth", v)
		}
	}
}
