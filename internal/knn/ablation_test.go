package knn

import (
	"math"
	"math/rand"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
)

// ierAStar is IER with the per-candidate Dijkstra replaced by A* under the
// admissible Euclidean heuristic — an ablation showing how much of IER's
// cost is the unguided per-candidate search.
func ierAStar(ix core.QueryIndex, objs *Objects, q graph.VertexID, k int) Result {
	return ier(ix, nil, objs, q, UnboundedSpec(k, VariantKNN), true, "IER-A*")
}

func TestIERAStarMatchesIER(t *testing.T) {
	// The A* ablation must return identical results to the paper-faithful
	// Dijkstra-based IER while settling fewer vertices.
	h := roadHarness(t, 12, 12, 71)
	rng := rand.New(rand.NewSource(3))
	totalDij, totalAst := 0, 0
	for trial := 0; trial < 15; trial++ {
		objs := h.randomObjects(rng.Intn(50)+5, rng)
		q := graph.VertexID(rng.Intn(h.g.NumVertices()))
		k := rng.Intn(6) + 1
		a := IERSpec(h.ix, nil, objs, q, UnboundedSpec(k, VariantKNN))
		b := ierAStar(h.ix, objs, q, k)
		if len(a.Neighbors) != len(b.Neighbors) {
			t.Fatalf("result sizes differ: %d vs %d", len(a.Neighbors), len(b.Neighbors))
		}
		for i := range a.Neighbors {
			if math.Abs(a.Neighbors[i].Dist-b.Neighbors[i].Dist) > distTol {
				t.Fatalf("rank %d: %v vs %v", i, a.Neighbors[i].Dist, b.Neighbors[i].Dist)
			}
		}
		totalDij += a.Stats.Settled
		totalAst += b.Stats.Settled
		if b.Stats.Algorithm != "IER-A*" {
			t.Fatalf("algorithm label %q", b.Stats.Algorithm)
		}
	}
	if totalAst >= totalDij {
		t.Fatalf("A* settled %d vs Dijkstra %d; heuristic not focusing", totalAst, totalDij)
	}
}

func TestINEDegenerateSingleObject(t *testing.T) {
	h := roadHarness(t, 6, 6, 72)
	objs := NewObjects(h.g, []graph.VertexID{5})
	res := INESpec(h.ix, nil, objs, 5, UnboundedSpec(1, VariantKNN))
	if len(res.Neighbors) != 1 || res.Neighbors[0].Dist != 0 {
		t.Fatalf("INE self-object: %+v", res.Neighbors)
	}
	// k exceeding |S| with INE must expand the whole reachable network and
	// still terminate with one object.
	res = INESpec(h.ix, nil, objs, 0, UnboundedSpec(4, VariantKNN))
	if len(res.Neighbors) != 1 {
		t.Fatalf("INE k>|S|: %d neighbors", len(res.Neighbors))
	}
	if res.Stats.Settled != h.g.NumVertices() {
		t.Fatalf("INE should have exhausted the network: settled %d of %d",
			res.Stats.Settled, h.g.NumVertices())
	}
}

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{
		VariantKNN: "KNN", VariantINN: "INN", VariantKNNI: "KNN-I",
		VariantKNNM: "KNN-M", Variant(99): "unknown",
	}
	for v, s := range want {
		if v.String() != s {
			t.Fatalf("%d.String() = %q want %q", v, v.String(), s)
		}
	}
	if len(Variants) != 4 {
		t.Fatalf("Variants = %v", Variants)
	}
}
