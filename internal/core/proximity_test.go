package core

import (
	"math"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/sssp"
)

func buildProximal(t *testing.T, g *graph.Network, radius float64) *Index {
	t.Helper()
	ix, err := Build(g, BuildOptions{ProximityRadius: radius})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestProximalQueriesMatchUnboundedInRange(t *testing.T) {
	g := roadNet(t, 9, 9, 51)
	full := buildIndex(t, g)
	radius := 0.35
	prox := buildProximal(t, g, radius)

	if prox.Radius() != radius {
		t.Fatalf("Radius = %v", prox.Radius())
	}
	inRange, outRange := 0, 0
	for s := 0; s < g.NumVertices(); s += 5 {
		tree := sssp.Dijkstra(g, graph.VertexID(s))
		for v := 0; v < g.NumVertices(); v += 3 {
			ss, vv := graph.VertexID(s), graph.VertexID(v)
			d := tree.Dist[v]
			if ss == vv {
				continue
			}
			if d <= radius {
				inRange++
				if got := prox.Distance(ss, vv); math.Abs(got-d) > 1e-9 {
					t.Fatalf("in-range Distance(%d,%d)=%v want %v", s, v, got, d)
				}
				a, b := full.DistanceInterval(ss, vv), prox.DistanceInterval(ss, vv)
				// Proximal blocks may be finer (split around range borders),
				// so the interval can be tighter but must stay valid.
				if b.Lo > d+1e-9 || b.Hi < d-1e-9 {
					t.Fatalf("proximal interval [%v,%v] misses %v (full: %+v)", b.Lo, b.Hi, d, a)
				}
				path := prox.Path(ss, vv)
				if path == nil || math.Abs(sssp.PathWeight(g, path)-d) > 1e-9 {
					t.Fatalf("in-range Path(%d,%d) wrong", s, v)
				}
			} else {
				outRange++
				iv := prox.DistanceInterval(ss, vv)
				if iv.Lo != radius || !math.IsInf(iv.Hi, 1) {
					t.Fatalf("out-of-range interval = %+v", iv)
				}
				if !math.IsInf(prox.Distance(ss, vv), 1) {
					t.Fatalf("out-of-range Distance finite")
				}
				if prox.Path(ss, vv) != nil {
					t.Fatalf("out-of-range Path not nil")
				}
				if prox.NextHop(ss, vv) != graph.NoVertex {
					t.Fatalf("out-of-range NextHop not NoVertex")
				}
				r := prox.NewRefiner(ss, vv)
				if !r.OutOfRange() || r.Step() {
					t.Fatal("out-of-range refiner should be stuck")
				}
			}
		}
	}
	if inRange == 0 || outRange == 0 {
		t.Fatalf("radius %v did not split pairs (in=%d out=%d)", radius, inRange, outRange)
	}
}

func TestProximalReducesStorage(t *testing.T) {
	g := roadNet(t, 12, 12, 52)
	full := buildIndex(t, g)
	prox := buildProximal(t, g, 0.2)
	if prox.Stats().TotalBlocks >= full.Stats().TotalBlocks {
		t.Fatalf("proximal blocks %d not below full %d",
			prox.Stats().TotalBlocks, full.Stats().TotalBlocks)
	}
}

func TestProximalAcceptsDisconnected(t *testing.T) {
	b := graph.NewBuilder()
	u := b.AddVertex(geom.Point{X: 0.1, Y: 0.1})
	v := b.AddVertex(geom.Point{X: 0.15, Y: 0.1})
	w := b.AddVertex(geom.Point{X: 0.9, Y: 0.9}) // separate island
	x := b.AddVertex(geom.Point{X: 0.85, Y: 0.9})
	b.AddBiEdge(u, v, 0.06)
	b.AddBiEdge(w, x, 0.06)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, BuildOptions{}); err == nil {
		t.Fatal("unbounded build must reject disconnected networks")
	}
	ix, err := Build(g, BuildOptions{ProximityRadius: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Distance(u, v); math.Abs(got-0.06) > 1e-12 {
		t.Fatalf("island-internal distance = %v", got)
	}
	if !math.IsInf(ix.Distance(u, w), 1) {
		t.Fatal("cross-island distance should be +Inf")
	}
}

func TestProximalSerializationPreservesRadius(t *testing.T) {
	g := roadNet(t, 8, 8, 53)
	prox, err := Build(g, BuildOptions{ProximityRadius: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	back := pagedIndex(t, prox, 1)
	if back.Radius() != 0.3 {
		t.Fatalf("radius lost on reload: %v", back.Radius())
	}
	// Out-of-range behavior must survive the round trip.
	for s := 0; s < g.NumVertices(); s += 7 {
		for v := 0; v < g.NumVertices(); v += 5 {
			a := prox.DistanceInterval(graph.VertexID(s), graph.VertexID(v))
			b := back.DistanceInterval(graph.VertexID(s), graph.VertexID(v))
			if a != b {
				t.Fatalf("interval differs after reload for (%d,%d)", s, v)
			}
		}
	}
}

func TestProximalRegionLowerBoundStillValid(t *testing.T) {
	// Region bounds on a proximal tree cover only in-range vertices, which
	// is fine: bounds for farther vertices are handled by the [R, Inf)
	// interval. Here: the bound must never exceed the true distance of an
	// in-range vertex inside the cell.
	g := roadNet(t, 9, 9, 54)
	radius := 0.4
	checkRegionBounds(t, "proximal", buildProximal(t, g, radius), radius)
}
