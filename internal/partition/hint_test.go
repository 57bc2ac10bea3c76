package partition

import (
	"reflect"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
)

// hookless hides every optional extension of the index it wraps: a search
// over it cannot see Sharded's expansion hook.
type hookless struct{ core.QueryIndex }

// TestExpandHintLocalNoop: over in-process cells the expansion hook is
// declined once per query and never called, so a search with the hook in
// reach computes exactly what one without it does — same neighbours, same
// lookups, refinements, queue high-water mark and heap pushes.
func TestExpandHintLocalNoop(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 14, Cols: 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if core.ExpandHinter(s).WantsExpandHints() {
		t.Fatal("a sharded index over in-process cells asks for expansion hints")
	}
	var vs []graph.VertexID
	for v := 0; v < g.NumVertices(); v += 3 {
		vs = append(vs, graph.VertexID(v))
	}
	objs := knn.NewObjects(g, vs)
	search := func(ix core.QueryIndex, q graph.VertexID, rng bool) (knn.Result, int64) {
		qc := core.NewQueryContext()
		var res knn.Result
		if rng {
			res = knn.RangeSearchCtx(ix, qc, objs, q, 0.25)
		} else {
			res = knn.SearchSpec(ix, qc, objs, q, knn.UnboundedSpec(10, knn.VariantKNN))
		}
		res.Stats.CPU = 0
		return res, qc.Span.HeapPushes
	}
	for q := 0; q < g.NumVertices(); q += 17 {
		for _, rng := range []bool{false, true} {
			with, pushesWith := search(s, graph.VertexID(q), rng)
			without, pushesWithout := search(hookless{s}, graph.VertexID(q), rng)
			if !reflect.DeepEqual(with, without) || pushesWith != pushesWithout {
				t.Fatalf("q=%d range=%v: hook in reach changed the search\n with    %+v (%d pushes)\n without %+v (%d pushes)",
					q, rng, with.Stats, pushesWith, without.Stats, pushesWithout)
			}
		}
	}
	// And the hook itself does nothing when called anyway.
	qc := core.NewQueryContext()
	s.HintExpand(qc, 0, vs, nil)
	if qc.Route != nil {
		t.Fatal("HintExpand built routing state on an in-process index")
	}
}
