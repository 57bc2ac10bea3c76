package partition

import (
	"math"
	"reflect"
	"testing"

	"silc/internal/core"
	"silc/internal/geom"
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

// cannedRemote stands in for a cell served from another process: the in-process
// cell answers the lookups, and the races are answered from nothing, so what
// the test below counts is the router's own side of a race.
type cannedRemote struct{ *localCell }

func (c cannedRemote) SourceBatch(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID, cells []geom.Cell) ([]core.Interval, []float64) {
	panic("not hinted in this test")
}

func (c cannedRemote) RaceRoutes(qc *core.QueryContext, dst graph.VertexID, offs []float64, us []graph.VertexID) (float64, int) {
	return offs[0], 0
}

func (c cannedRemote) RaceBatch(qc *core.QueryContext, dsts []graph.VertexID, ns []int32, offs []float64, us []graph.VertexID, out []float64) []float64 {
	for range dsts {
		out = append(out, 1)
	}
	return out
}

// countingRemote stands in for a cell served from another process whose
// interval calls are counted: batches and single region bounds.
type countingRemote struct {
	cannedRemote
	batches, regions *int
}

func (c countingRemote) SourceBatch(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID, cells []geom.Cell) ([]core.Interval, []float64) {
	*c.batches++
	ivs, lbs := make([]core.Interval, len(dsts)), make([]float64, len(cells))
	for i, d := range dsts {
		ivs[i] = c.DistanceIntervalCtx(qc, src, d)
	}
	for i, cell := range cells {
		lbs[i] = c.localCell.RegionLowerBoundCtx(qc, src, cell)
	}
	return ivs, lbs
}

func (c countingRemote) RegionLowerBoundCtx(qc *core.QueryContext, q graph.VertexID, cell geom.Cell) float64 {
	*c.regions++
	return c.localCell.RegionLowerBoundCtx(qc, q, cell)
}

// TestExpandHintsKeepEveryRegionBound: a region bound fetched by any
// announcement of a query stays fetched for the rest of that query and
// source — a later announcement neither evicts it nor asks for it again —
// and answers what the cell computes, bit for bit. A new query asks afresh.
func TestExpandHintsKeepEveryRegionBound(t *testing.T) {
	g, s := buildTestSharded(t, 14, 14, 4, 7, false)
	var batches, regions int
	for _, cx := range s.cells {
		s.remote = append(s.remote, countingRemote{cannedRemote{cx.seam}, &batches, &regions})
	}
	local, err := Build(g, Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.VertexID(g.NumVertices() / 3)
	// The quadtree cells around src at levels 1..6 each hold a vertex of its
	// partition: src itself.
	var shallow, deep []geom.Cell
	for level := uint8(1); level <= 6; level++ {
		cell := geom.Cell{Code: g.Code(src) &^ (geom.Code(geom.Span(level)) - 1), Level: level}
		if level <= 3 {
			shallow = append(shallow, cell)
		} else {
			deep = append(deep, cell)
		}
	}
	qc := core.NewQueryContext()
	for query := 1; query <= 2; query++ {
		qc.ResetForReuse(nil)
		batches, regions = 0, 0
		s.HintExpand(qc, src, nil, shallow)
		s.HintExpand(qc, src, nil, deep)
		s.HintExpand(qc, src, nil, shallow) // known: asks nothing
		for _, cell := range append(shallow, deep...) {
			got := s.RegionLowerBoundCtx(qc, src, cell)
			if want := local.RegionLowerBoundCtx(core.NewQueryContext(), src, cell); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("query %d, cell %v: hinted bound %v, in process %v", query, cell, got, want)
			}
		}
		if batches != 2 || regions != 0 {
			t.Fatalf("query %d: %d batches and %d single region calls for two announcements, want 2 and 0", query, batches, regions)
		}
	}
}

// TestRaceAssemblyWarmAllocs: over remote cells a refiner is a slab entry
// and its race candidates are assembled in the router's scratch, for the
// single race of a Step and for the batch of a HintRefine alike — a warm
// context allocates nothing for either on the router's side of the wire.
func TestRaceAssemblyWarmAllocs(t *testing.T) {
	g, s := buildTestSharded(t, 14, 14, 4, 7, false)
	for _, cx := range s.cells {
		s.remote = append(s.remote, cannedRemote{cx.seam})
	}
	n := g.NumVertices()
	qc := core.NewQueryContext()
	dsts := make([]graph.VertexID, 0, 8)
	round := func(src graph.VertexID, hint bool) {
		qc.ResetForReuse(nil)
		dsts = dsts[:0]
		var rs [8]core.DistanceRefiner
		for i := range rs {
			dst := graph.VertexID(3 + i*n/8) // the same few label rows every round: none is ever dropped
			rs[i] = s.Refine(qc, src, dst)
			dsts = append(dsts, dst)
		}
		if hint {
			s.HintRefine(qc, src, dsts)
		}
		for _, r := range rs {
			r.Step()
			if !r.Done() {
				t.Fatalf("source %d: a refiner over remote cells is not exact after one Step", src)
			}
		}
	}
	for v := 0; v < n; v++ { // warm: label rows, slab, scratch, the largest cell's sizes
		round(graph.VertexID(v), v%2 == 0)
	}
	hinted0, used0 := s.RaceHintStats()
	v := 0
	for _, hint := range []bool{false, true} {
		if got := testing.AllocsPerRun(50, func() {
			v = (v + 37) % n
			round(graph.VertexID(v), hint)
		}); got != 0 {
			t.Fatalf("hint=%v: a warm round of 8 refiners allocates %.1f times on the router", hint, got)
		}
	}
	if hinted, used := s.RaceHintStats(); hinted == hinted0 || hinted-hinted0 != used-used0 {
		t.Fatalf("batches raced %d destinations and %d were used", hinted-hinted0, used-used0)
	}
}
