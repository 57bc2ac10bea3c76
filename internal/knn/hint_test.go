package knn

import (
	"math/rand"
	"reflect"
	"testing"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
)

// hintChecker is a QueryIndex that takes hints and checks the hook's
// contract from the index's side: every Refine and every region lower bound
// the search makes was announced by an earlier HintExpand of the same query,
// for the same source, and every destination a HintRefine announces was
// handed to Refine earlier in that query.
type hintChecker struct {
	core.QueryIndex
	t       *testing.T
	src     graph.VertexID
	dsts    map[graph.VertexID]bool
	cells   map[geom.Cell]bool
	refined map[graph.VertexID]bool
	hints   int
	refines int
	misses  int
}

func (h *hintChecker) WantsExpandHints() bool { return true }

func (h *hintChecker) HintExpand(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID, cells []geom.Cell) {
	h.hints++
	if len(dsts)+len(cells) == 0 {
		h.t.Errorf("empty hint for source %d", src)
	}
	h.src = src
	for _, d := range dsts {
		h.dsts[d] = true
	}
	for _, c := range cells {
		h.cells[c] = true
	}
}

func (h *hintChecker) HintRefine(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID) {
	h.refines++
	if len(dsts) == 0 {
		h.t.Errorf("empty refinement hint for source %d", src)
	}
	for _, d := range dsts {
		if src != h.src || !h.refined[d] {
			h.t.Errorf("source %d: destination %d announced for refinement before any Refine", src, d)
		}
	}
}

func (h *hintChecker) Refine(qc *core.QueryContext, src, dst graph.VertexID) core.DistanceRefiner {
	if src != h.src || !h.dsts[dst] {
		h.misses++
	}
	h.refined[dst] = true
	return h.QueryIndex.Refine(qc, src, dst)
}

func (h *hintChecker) RegionLowerBoundCtx(qc *core.QueryContext, q graph.VertexID, cell geom.Cell) float64 {
	if q != h.src || !h.cells[cell] {
		h.misses++
	}
	return h.QueryIndex.RegionLowerBoundCtx(qc, q, cell)
}

// sameSearch compares what a search computed, not how long it took.
func sameSearch(a, b Result) bool {
	a.Stats.CPU, b.Stats.CPU = 0, 0
	return reflect.DeepEqual(a, b)
}

// TestExpandHintsCoverEveryLookup: on an index that wants hints, every
// variant of the best-first family, the range search, the bounded search
// that refines in drainL and the browser announce each lookup before making
// it and each refinement only for pairs they have looked up — and the hints
// change nothing: the result and every counter equal the plain index's. An
// index without the hook (the monolithic *core.Index) is never asked.
func TestExpandHintsCoverEveryLookup(t *testing.T) {
	h := roadHarness(t, 16, 16, 3)
	if _, ok := core.QueryIndex(h.ix).(core.ExpandHinter); ok {
		t.Fatal("the monolithic index grew an expansion hook; its hot path must stay hook-free")
	}
	rng := rand.New(rand.NewSource(9))
	objs := h.randomObjects(60, rng)
	for i := 0; i < 20; i++ {
		q := graph.VertexID(rng.Intn(h.g.NumVertices()))
		chk := &hintChecker{QueryIndex: h.ix, t: t}
		fresh := func() *hintChecker {
			chk.dsts, chk.cells, chk.refined = map[graph.VertexID]bool{}, map[geom.Cell]bool{}, map[graph.VertexID]bool{}
			return chk
		}
		for _, v := range Variants {
			want := SearchSpec(h.ix, nil, objs, q, UnboundedSpec(7, v))
			if got := SearchSpec(fresh(), nil, objs, q, UnboundedSpec(7, v)); !sameSearch(got, want) {
				t.Fatalf("q=%d %v: hinted search differs\n got %+v\nwant %+v", q, v, got, want)
			}
		}
		want := RangeSearchCtx(h.ix, nil, objs, q, 0.3)
		if got := RangeSearchCtx(fresh(), nil, objs, q, 0.3); !sameSearch(got, want) {
			t.Fatalf("q=%d range: hinted search differs", q)
		}
		// A distance bound with ε > 0 makes drainL refine the members of L it
		// reports.
		bounded := Spec{K: 7, Variant: VariantKNN, Epsilon: 0.05, MaxDist: 0.35}
		want = SearchSpec(h.ix, core.NewQueryContext(), objs, q, bounded)
		if got := SearchSpec(fresh(), core.NewQueryContext(), objs, q, bounded); !sameSearch(got, want) {
			t.Fatalf("q=%d bounded: hinted search differs", q)
		}
		b, plain := NewBrowserSpec(fresh(), nil, objs, q, UnboundedSpec(0, VariantINN)), NewBrowserSpec(h.ix, nil, objs, q, UnboundedSpec(0, VariantINN))
		for n := 0; n < 5; n++ {
			got, _ := b.Next()
			if want, _ := plain.Next(); !reflect.DeepEqual(got, want) {
				t.Fatalf("q=%d: hinted browser's neighbour %d is %+v, want %+v", q, n, got, want)
			}
		}
		if got, want := b.Stats(), plain.Stats(); got != want {
			t.Fatalf("q=%d: hinted browser's stats %+v, want %+v", q, got, want)
		}
		if chk.hints == 0 || chk.refines == 0 {
			t.Fatalf("q=%d: a hint-taking index received %d expansion and %d refinement hints", q, chk.hints, chk.refines)
		}
		if chk.misses != 0 {
			t.Fatalf("q=%d: %d lookups were never announced", q, chk.misses)
		}
	}
}

// TestExpandHintsCoverDeepTrees: an announcement names two levels of the
// object tree, and the nodes it covers announce nothing; on object sets
// dense enough that searches expand interior nodes two and more levels
// down — and so must announce again — every lookup is still announced first
// and the results are the plain index's.
func TestExpandHintsCoverDeepTrees(t *testing.T) {
	h := roadHarness(t, 24, 24, 5)
	rng := rand.New(rand.NewSource(26))
	deeper := 0 // searches that announced more than once
	for _, m := range []int{200, h.g.NumVertices()} {
		objs := h.randomObjects(m, rng)
		for i := 0; i < 10; i++ {
			q := graph.VertexID(rng.Intn(h.g.NumVertices()))
			for _, v := range append(Variants, -1) { // -1: the range search
				chk := &hintChecker{QueryIndex: h.ix, t: t, dsts: map[graph.VertexID]bool{},
					cells: map[geom.Cell]bool{}, refined: map[graph.VertexID]bool{}}
				var got, want Result
				if v < 0 {
					got, want = RangeSearchCtx(chk, nil, objs, q, 0.3), RangeSearchCtx(h.ix, nil, objs, q, 0.3)
				} else {
					got, want = SearchSpec(chk, nil, objs, q, UnboundedSpec(12, v)), SearchSpec(h.ix, nil, objs, q, UnboundedSpec(12, v))
				}
				if !sameSearch(got, want) {
					t.Fatalf("m=%d q=%d variant %v: hinted search differs", m, q, v)
				}
				if chk.misses != 0 {
					t.Fatalf("m=%d q=%d variant %v: %d lookups were never announced", m, q, v, chk.misses)
				}
				if chk.hints > 1 {
					deeper++
				}
			}
		}
	}
	if deeper == 0 {
		t.Fatal("no search expanded an interior node two levels down; the trees are too shallow to tell")
	}
}
