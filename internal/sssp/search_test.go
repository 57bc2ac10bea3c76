package sssp

import (
	"math"
	"math/rand"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
)

// oneWayNetwork places n vertices on a jittered lattice and joins them with
// random arcs, most of them one-way, each weighing its Euclidean length
// times Uniform[1, 2] so the A* heuristic stays admissible. Some vertices
// are unreachable from others.
func oneWayNetwork(t *testing.T, n, arcs int, seed int64) *graph.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Ceil(math.Sqrt(float64(n))))
	b := graph.NewBuilder()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: (float64(i%side) + 0.2 + 0.6*rng.Float64()) / float64(side),
			Y: (float64(i/side) + 0.2 + 0.6*rng.Float64()) / float64(side),
		}
		b.AddVertex(pts[i])
	}
	for e := 0; e < arcs; e++ {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		w := pts[u].Dist(pts[v]) * (1 + rng.Float64())
		if rng.Intn(4) == 0 {
			b.AddBiEdge(u, v, w)
		} else {
			b.AddEdge(u, v, w)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSearchSettlesEveryReachableVertexOnce: run to exhaustion, a Search
// settles each vertex Workspace.Run reaches exactly once, at Run's distance,
// in non-decreasing distance order, and relaxes every arc of every settled
// vertex, on one-way networks too. One Search serves every source and
// network, so its epoch-stamped marks are re-armed across sizes.
func TestSearchSettlesEveryReachableVertexOnce(t *testing.T) {
	var sr Search
	for gi, g := range smallNetworks(t) {
		ws := NewWorkspace(g.NumVertices())
		for src := 0; src < g.NumVertices(); src += 7 {
			want := ws.Run(g, graph.VertexID(src))
			sr.Start(g, graph.VertexID(src), graph.NoVertex)
			seen := make([]bool, g.NumVertices())
			prev, arcs := 0.0, 0
			for {
				v, d, ok := sr.Next(Inf)
				if !ok {
					break
				}
				if seen[v] {
					t.Fatalf("net %d src %d: vertex %d settled twice", gi, src, v)
				}
				seen[v] = true
				if d < prev {
					t.Fatalf("net %d src %d: settled %d at %v after %v", gi, src, v, d, prev)
				}
				if d != want.Dist[v] {
					t.Fatalf("net %d src %d: vertex %d at %v, Run says %v", gi, src, v, d, want.Dist[v])
				}
				prev = d
				arcs += g.Degree(v)
			}
			for v, d := range want.Dist {
				if !math.IsInf(d, 1) && !seen[v] {
					t.Fatalf("net %d src %d: reachable vertex %d never settled", gi, src, v)
				}
			}
			if sr.Settled != want.Settled || sr.Relaxed != arcs || sr.MaxQueue == 0 && arcs > 0 {
				t.Fatalf("net %d src %d: settled %d relaxed %d peak %d, want %d settled and %d arcs",
					gi, src, sr.Settled, sr.Relaxed, sr.MaxQueue, want.Settled, arcs)
			}
		}
	}
}

// TestSearchLimitSettlesNothingBeyond: Next(limit) refuses the vertex whose
// key exceeds limit without settling it, and the search carries on from it.
func TestSearchLimitSettlesNothingBeyond(t *testing.T) {
	g := oneWayNetwork(t, 80, 300, 11)
	want := Dijkstra(g, 0)
	var sr Search
	sr.Start(g, 0, graph.NoVertex)
	limit := 0.3
	var order []graph.VertexID
	for {
		v, d, ok := sr.Next(limit)
		if !ok {
			break
		}
		if d > limit {
			t.Fatalf("vertex %d at %v settled beyond the limit %v", v, d, limit)
		}
		order = append(order, v)
	}
	if sr.Settled != len(order) {
		t.Fatalf("settled %d, returned %d", sr.Settled, len(order))
	}
	first := len(order)
	for {
		v, _, ok := sr.Next(Inf)
		if !ok {
			break
		}
		order = append(order, v)
	}
	if len(order) != want.Settled || first == 0 || first == len(order) {
		t.Fatalf("settled %d then %d, Dijkstra %d in all", first, len(order)-first, want.Settled)
	}
	for i, v := range order {
		if (i < first) != (want.Dist[v] <= limit) {
			t.Fatalf("vertex %d at %v settled %dth, the limited leg settled %d", v, want.Dist[v], i+1, first)
		}
	}
}

// TestSearchEpochWrap: when the epoch counter wraps on a small network,
// stamps a larger network left beyond its size must not pass for the new
// epochs once the search grows back into them.
func TestSearchEpochWrap(t *testing.T) {
	small, big := oneWayNetwork(t, 30, 120, 3), oneWayNetwork(t, 90, 360, 4)
	want := Dijkstra(big, 0)
	settle := func(sr *Search, g *graph.Network) {
		sr.Start(g, 0, graph.NoVertex)
		for _, _, ok := sr.Next(Inf); ok; _, _, ok = sr.Next(Inf) {
		}
	}
	var sr Search
	settle(&sr, big)
	settle(&sr, big) // big's vertices now carry stamp 2
	sr.epoch = math.MaxUint32
	settle(&sr, small) // wraps to epoch 1
	settle(&sr, big)   // epoch 2 again
	if sr.Settled != want.Settled {
		t.Fatalf("after the wrap settled %d of %d reachable vertices", sr.Settled, want.Settled)
	}
}
