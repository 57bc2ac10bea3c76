package oracle

import (
	"math"
	"math/rand"
	"testing"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/sssp"
	"silc/internal/testkit"
)

func testNet(t *testing.T, rows, cols int, seed int64) *graph.Network {
	t.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNextHopMatchesDijkstra(t *testing.T) {
	g := testNet(t, 7, 7, 1)
	m, err := BuildNextHop(g)
	if err != nil {
		t.Fatal(err)
	}
	oracle := testkit.FloydWarshall(g)
	for u := 0; u < g.NumVertices(); u++ {
		for v := 0; v < g.NumVertices(); v++ {
			uu, vv := graph.VertexID(u), graph.VertexID(v)
			got := m.Distance(uu, vv)
			if math.Abs(got-oracle[u][v]) > 1e-9 {
				t.Fatalf("Distance(%d,%d)=%v want %v", u, v, got, oracle[u][v])
			}
			path := m.Path(uu, vv)
			if path[0] != uu || path[len(path)-1] != vv {
				t.Fatalf("bad path endpoints for (%d,%d)", u, v)
			}
			if u != v {
				if w := testkit.PathWeight(g, path); math.Abs(w-oracle[u][v]) > 1e-9 {
					t.Fatalf("path weight %v want %v", w, oracle[u][v])
				}
			}
		}
	}
	if m.SizeBytes() != int64(g.NumVertices())*int64(g.NumVertices())*4 {
		t.Fatal("SizeBytes wrong")
	}
}

func TestNextHopRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder()
	b.AddVertex(pt(0.1, 0.1))
	b.AddVertex(pt(0.9, 0.9))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildNextHop(g); err == nil {
		t.Fatal("expected error")
	}
	if _, err := BuildExplicitPaths(g); err == nil {
		t.Fatal("expected error")
	}
}

func TestExplicitPathsMatchDijkstra(t *testing.T) {
	g := testNet(t, 6, 6, 2)
	e, err := BuildExplicitPaths(g)
	if err != nil {
		t.Fatal(err)
	}
	oracle := testkit.FloydWarshall(g)
	for u := 0; u < g.NumVertices(); u++ {
		for v := 0; v < g.NumVertices(); v++ {
			uu, vv := graph.VertexID(u), graph.VertexID(v)
			if got := e.Distance(uu, vv); math.Abs(got-oracle[u][v]) > 1e-9 {
				t.Fatalf("Distance(%d,%d)=%v want %v", u, v, got, oracle[u][v])
			}
			if u != v {
				path := e.Path(uu, vv)
				if w := testkit.PathWeight(g, path); math.Abs(w-oracle[u][v]) > 1e-9 {
					t.Fatalf("path weight mismatch (%d,%d)", u, v)
				}
			}
		}
	}
	if e.SizeBytes() <= int64(g.NumVertices())*int64(g.NumVertices())*8 {
		t.Fatal("SizeBytes must include path storage")
	}
}

func TestExplicitPathsCap(t *testing.T) {
	g := testNet(t, 45, 45, 3) // ~1.8k vertices, above the cap
	if g.NumVertices() <= MaxVerticesExplicit {
		t.Skipf("network only %d vertices", g.NumVertices())
	}
	if _, err := BuildExplicitPaths(g); err == nil {
		t.Fatal("expected cap error")
	}
}

func buildOracle(t *testing.T, g *graph.Network, eps float64) *DistanceOracle {
	t.Helper()
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildDistanceOracle(ix, eps)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestDistanceOracleErrorBound(t *testing.T) {
	for _, eps := range []float64{0.5, 0.25, 0.1} {
		g := testNet(t, 8, 8, 4)
		o := buildOracle(t, g, eps)
		// Exhaustive check against ground truth.
		for u := 0; u < g.NumVertices(); u++ {
			tree := sssp.Dijkstra(g, graph.VertexID(u))
			for v := 0; v < g.NumVertices(); v++ {
				want := tree.Dist[v]
				got := o.Distance(graph.VertexID(u), graph.VertexID(v))
				if u == v {
					if got != 0 {
						t.Fatalf("eps %v: self distance %v", eps, got)
					}
					continue
				}
				if math.Abs(got-want) > eps*want+1e-9 {
					t.Fatalf("eps %v: (%d,%d) approx %v true %v (err %.1f%%)",
						eps, u, v, got, want, 100*math.Abs(got-want)/want)
				}
			}
		}
	}
}

func TestDistanceOraclePairCountGrowsWithPrecision(t *testing.T) {
	g := testNet(t, 8, 8, 5)
	loose := buildOracle(t, g, 0.5)
	tight := buildOracle(t, g, 0.1)
	if len(tight.pairs) <= len(loose.pairs) {
		t.Fatalf("pairs: eps=0.1 %d should exceed eps=0.5 %d", len(tight.pairs), len(loose.pairs))
	}
	if loose.SizeBytes() != int64(len(loose.pairs))*26 {
		t.Fatal("SizeBytes inconsistent with pair count")
	}
	if loose.Epsilon() != 0.5 {
		t.Fatal("Epsilon not stored")
	}
}

func TestDistanceOracleSubquadraticGrowth(t *testing.T) {
	// The PCP idea: far-apart regions share one entry, so the pairs/n^2
	// ratio must fall as the network grows (the absolute byte win over a
	// next-hop matrix appears at scales beyond unit-test budgets).
	small := testNet(t, 14, 14, 6)
	large := testNet(t, 20, 20, 6)
	oSmall := buildOracle(t, small, 0.5)
	oLarge := buildOracle(t, large, 0.5)
	rSmall := float64(len(oSmall.pairs)) / float64(small.NumVertices()*small.NumVertices())
	rLarge := float64(len(oLarge.pairs)) / float64(large.NumVertices()*large.NumVertices())
	if rLarge >= rSmall {
		t.Fatalf("pair density did not fall: %.3f (n=%d) -> %.3f (n=%d)",
			rSmall, small.NumVertices(), rLarge, large.NumVertices())
	}
	// And at this size the pair table is already well below n^2 entries.
	n := large.NumVertices()
	if len(oLarge.pairs) >= n*n/3 {
		t.Fatalf("oracle stores %d pairs for %d vertices; no compression", len(oLarge.pairs), n)
	}
}

func TestDistanceOracleRejectsBadEps(t *testing.T) {
	g := testNet(t, 5, 5, 7)
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, -0.5, 1, 2} {
		if _, err := BuildDistanceOracle(ix, eps); err == nil {
			t.Fatalf("eps %v accepted", eps)
		}
	}
}

func TestDistanceOracleRejectsAsymmetric(t *testing.T) {
	b := graph.NewBuilder()
	u := b.AddVertex(pt(0.2, 0.2))
	v := b.AddVertex(pt(0.8, 0.8))
	b.AddEdge(u, v, 1.0)
	b.AddEdge(v, u, 2.0) // asymmetric weights
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildDistanceOracle(ix, 0.25); err == nil {
		t.Fatal("asymmetric network accepted")
	}
}

func TestDistanceOracleRandomQueries(t *testing.T) {
	g := testNet(t, 12, 12, 8)
	eps := 0.2
	o := buildOracle(t, g, eps)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		u := graph.VertexID(rng.Intn(g.NumVertices()))
		v := graph.VertexID(rng.Intn(g.NumVertices()))
		want := sssp.ShortestPath(g, u, v).Dist
		if u == v {
			want = 0
		}
		got := o.Distance(u, v)
		if math.Abs(got-want) > eps*want+1e-9 {
			t.Fatalf("(%d,%d): approx %v true %v", u, v, got, want)
		}
	}
}

func pt(x, y float64) geom.Point {
	return geom.Point{X: x, Y: y}
}
