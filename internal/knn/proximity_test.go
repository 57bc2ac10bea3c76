package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/sssp"
)

// TestProximalKNNReturnsInRangeNeighbors: on a proximity-bounded index the
// kNN family must return exactly the in-range portion of the true top-k, in
// the right order, and never an out-of-range object.
func TestProximalKNNReturnsInRangeNeighbors(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 9, Cols: 9, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	radius := 0.3
	ix, err := core.Build(g, core.BuildOptions{ProximityRadius: radius})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{g: g, ix: ix}
	rng := rand.New(rand.NewSource(21))

	for trial := 0; trial < 25; trial++ {
		objs := h.randomObjects(rng.Intn(30)+5, rng)
		q := graph.VertexID(rng.Intn(g.NumVertices()))
		k := rng.Intn(8) + 1

		// Ground truth: in-range objects sorted by distance, capped at k.
		tree := sssp.Dijkstra(g, q)
		var want []float64
		for id := int32(0); id < int32(objs.Len()); id++ {
			if d := tree.Dist[objs.ByID(id).Vertex]; d <= radius {
				want = append(want, d)
			}
		}
		sort.Float64s(want)
		if len(want) > k {
			want = want[:k]
		}

		for _, v := range Variants {
			res := SearchSpec(h.ix, nil, objs, q, UnboundedSpec(k, v))
			if len(res.Neighbors) != len(want) {
				t.Fatalf("%v: got %d in-range neighbors, want %d (trial %d)",
					v, len(res.Neighbors), len(want), trial)
			}
			got := make([]float64, len(res.Neighbors))
			for i, nb := range res.Neighbors {
				got[i] = tree.Dist[nb.Object.Vertex]
				if got[i] > radius+distTol {
					t.Fatalf("%v: returned out-of-range object at %v", v, got[i])
				}
			}
			if !res.Sorted {
				sort.Float64s(got)
			}
			for i := range got {
				if math.Abs(got[i]-want[i]) > distTol {
					t.Fatalf("%v: rank %d dist %v want %v", v, i, got[i], want[i])
				}
			}
		}

		// Range search bounded by a radius below the index bound.
		r := radius * rng.Float64()
		res := RangeSearchCtx(h.ix, nil, objs, q, r)
		wantCount := 0
		for id := int32(0); id < int32(objs.Len()); id++ {
			if tree.Dist[objs.ByID(id).Vertex] <= r {
				wantCount++
			}
		}
		if len(res.Neighbors) != wantCount {
			t.Fatalf("range %v: got %d want %d", r, len(res.Neighbors), wantCount)
		}
	}
}

func TestProximalBrowserStopsAtRadius(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 8, Cols: 8, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	radius := 0.25
	ix, err := core.Build(g, core.BuildOptions{ProximityRadius: radius})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{g: g, ix: ix}
	rng := rand.New(rand.NewSource(23))
	objs := h.randomObjects(25, rng)
	q := graph.VertexID(rng.Intn(g.NumVertices()))
	tree := sssp.Dijkstra(g, q)

	b := NewBrowserSpec(h.ix, nil, objs, q, UnboundedSpec(0, VariantINN))
	count := 0
	for {
		nb, ok := b.Next()
		if !ok {
			break
		}
		if tree.Dist[nb.Object.Vertex] > radius+distTol {
			t.Fatal("browser emitted an out-of-range object")
		}
		count++
	}
	wantCount := 0
	for id := int32(0); id < int32(objs.Len()); id++ {
		if tree.Dist[objs.ByID(id).Vertex] <= radius {
			wantCount++
		}
	}
	if count != wantCount {
		t.Fatalf("browser yielded %d, want %d in-range objects", count, wantCount)
	}
}
