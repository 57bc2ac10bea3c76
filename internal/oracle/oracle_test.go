package oracle

import (
	"math"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
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
	b.AddVertex(geom.Point{X: 0.1, Y: 0.1})
	b.AddVertex(geom.Point{X: 0.9, Y: 0.9})
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
