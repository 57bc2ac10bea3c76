package knn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/sssp"
)

// flipCtx is a context whose Err turns to context.Canceled at its at-th
// call, so a query can be cancelled at every point it checks.
type flipCtx struct {
	context.Context
	calls, at int
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls >= c.at {
		return context.Canceled
	}
	return nil
}

// baselines are the graph-search kNN algorithms.
var baselines = []struct {
	name string
	run  func(core.QueryIndex, *core.QueryContext, *Objects, graph.VertexID, Spec) Result
}{{"INE", INESpec}, {"IER", IERSpec}}

// checkReached fails unless every neighbor is finite, exact and at its true
// network distance: a baseline reports only objects its search reached.
func checkReached(t *testing.T, tag string, res Result, tree *sssp.Tree) {
	t.Helper()
	for i, nb := range res.Neighbors {
		want := tree.Dist[nb.Object.Vertex]
		if math.IsInf(nb.Dist, 0) || !nb.Exact || math.Abs(nb.Dist-want) > distTol {
			t.Fatalf("%s: rank %d reports object %d at %v (exact %v), true distance %v",
				tag, i, nb.Object.ID, nb.Dist, nb.Exact, want)
		}
	}
}

// TestBaselinesCancelledAtEveryCheck cancels INE and IER at each of their
// context checks in turn: whatever they return beside ctx.Err() must be
// objects their search reached, at their exact distances.
func TestBaselinesCancelledAtEveryCheck(t *testing.T) {
	h := roadHarness(t, 6, 6, 81)
	rng := rand.New(rand.NewSource(5))
	objs := h.randomObjects(8, rng)
	q := graph.VertexID(rng.Intn(h.g.NumVertices()))
	tree := sssp.Dijkstra(h.g, q)
	for _, alg := range baselines {
		for at := 1; ; at++ {
			ctx := &flipCtx{Context: context.Background(), at: at}
			res := alg.run(h.ix, core.NewQueryContextFor(ctx), objs, q, UnboundedSpec(4, VariantKNN))
			checkReached(t, alg.name, res, tree)
			if res.Err == nil {
				if at < 3 {
					t.Fatalf("%s finished within %d context checks", alg.name, at)
				}
				break
			}
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("%s cancelled at check %d: err %v", alg.name, at, res.Err)
			}
		}
	}
}

// twoComponents is a network of two 5×5 lattices with no road between them.
func twoComponents(t *testing.T) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	for c, x0 := range []float64{0.05, 0.55} {
		base := graph.VertexID(25 * c)
		for i := 0; i < 25; i++ {
			b.AddVertex(geom.Point{X: x0 + 0.1*float64(i%5), Y: 0.05 + 0.2*float64(i/5)})
		}
		for i := 0; i < 25; i++ {
			u := base + graph.VertexID(i)
			if i%5 < 4 {
				b.AddBiEdge(u, u+1, 0.11)
			}
			if i/5 < 4 {
				b.AddBiEdge(u, u+5, 0.22)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBaselinesOnDisconnectedNetwork: over two unconnected components,
// indexed leniently (AllowUnreachable, so the other component's objects are
// done at [+Inf, +Inf]), INE, IER and KNN report the same neighbors, and
// none from the other component, even when k exceeds the objects in reach.
func TestBaselinesOnDisconnectedNetwork(t *testing.T) {
	g := twoComponents(t)
	ix, err := core.Build(g, core.BuildOptions{AllowUnreachable: true})
	if err != nil {
		t.Fatal(err)
	}
	objs := NewObjects(g, []graph.VertexID{3, 12, 20, 24, 27, 31, 40, 49})
	for _, q := range []graph.VertexID{0, 7, 24, 25, 38} {
		tree := sssp.Dijkstra(g, q)
		for _, k := range []int{1, 3, 8} {
			// KNN may stop at a certified bound short of the exact
			// distance; its objects' true distances are the reference.
			var want []float64
			for _, nb := range SearchSpec(ix, nil, objs, q, UnboundedSpec(k, VariantKNN)).Neighbors {
				d := tree.Dist[nb.Object.Vertex]
				if math.IsInf(d, 1) {
					t.Fatalf("q=%d k=%d: KNN reports unreachable object %d", q, k, nb.Object.ID)
				}
				want = append(want, d)
			}
			for _, alg := range baselines {
				got := alg.run(ix, nil, objs, q, UnboundedSpec(k, VariantKNN))
				checkReached(t, alg.name, got, tree)
				if len(got.Neighbors) != len(want) {
					t.Fatalf("q=%d k=%d: %s reports %d neighbors, KNN %d", q, k, alg.name, len(got.Neighbors), len(want))
				}
				for i, nb := range got.Neighbors {
					if math.Abs(nb.Dist-want[i]) > distTol {
						t.Fatalf("q=%d k=%d rank %d: %s %v, KNN %v", q, k, i, alg.name, nb.Dist, want[i])
					}
				}
			}
		}
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
