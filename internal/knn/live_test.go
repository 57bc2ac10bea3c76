package knn

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
)

// slotOrdered rebuilds live from scratch as a static set whose dense ids
// follow live's slots in ascending order, and returns it with the public id
// of each dense id. The two quadtrees are then the same tree up to that
// monotone renumbering — leaf order included — so a search over either walks
// the same trajectory and must agree in every bit and every counter.
func slotOrdered(g *graph.Network, live *Objects) (*Objects, []int32) {
	var ids []int32
	var verts []graph.VertexID
	for o := range live.objects {
		ids = append(ids, live.Label(o.ID))
		verts = append(verts, o.Vertex)
	}
	return NewObjects(g, verts), ids
}

// relabel rewrites a result over the slot-ordered static set into public ids.
func relabel(res Result, ids []int32) Result {
	for i := range res.Neighbors {
		res.Neighbors[i].Object.ID = ids[res.Neighbors[i].Object.ID]
	}
	return res
}

// TestScratchAcrossSlotBounds runs every search over a chain of live
// versions whose slot bound climbs and falls and whose slots have gaps, all
// on ONE query context — so the arena's slot-indexed state table is resized
// down and up again with the last query's entries still in it. Each answer
// must equal, field for field and counter for counter, both the same search
// on a fresh context and the search over the from-scratch static set.
func TestScratchAcrossSlotBounds(t *testing.T) {
	h := roadHarness(t, 14, 14, 4)
	rng := rand.New(rand.NewSource(17))
	randomVertex := func() graph.VertexID { return graph.VertexID(rng.Intn(h.g.NumVertices())) }

	live := EmptyObjects(h.g)
	nextID := int32(1000) // public ids are not slots
	var free []int32
	var occupied []int32
	insert := func() {
		slot := int32(live.SlotBound())
		if n := len(free); n > 0 && rng.Intn(3) > 0 {
			slot, free = free[n-1], free[:n-1]
			if int(slot) >= live.SlotBound() {
				slot = int32(live.SlotBound())
			}
		}
		live = live.WithInserted(slot, nextID, randomVertex())
		nextID++
		occupied = append(occupied, slot)
	}
	remove := func(i int) {
		slot := occupied[i]
		occupied[i] = occupied[len(occupied)-1]
		occupied = occupied[:len(occupied)-1]
		live = live.WithRemoved(slot)
		free = free[:0]
		for s := int32(0); int(s) < live.SlotBound(); s++ {
			if !live.Live(s) {
				free = append(free, s)
			}
		}
	}

	qc := core.NewQueryContext()
	var bounds []int
	gaps := false
	for _, target := range []int{6, 300, 40, 600, 12, 150} {
		for len(occupied) < target {
			insert()
		}
		for len(occupied) > target {
			// Mostly the top slot, so the bound falls; sometimes any.
			i := slices.Index(occupied, int32(live.SlotBound()-1))
			if rng.Intn(4) == 0 {
				i = rng.Intn(len(occupied))
			}
			remove(i)
		}
		for i := 0; i < target/3; i++ {
			slot := occupied[rng.Intn(len(occupied))]
			live = live.WithMoved(slot, randomVertex())
		}
		bounds = append(bounds, live.SlotBound())
		gaps = gaps || live.SlotBound() > live.Len()
		if live.Len() != target || live.Tree().Len() != target {
			t.Fatalf("target %d: Len %d, tree %d", target, live.Len(), live.Tree().Len())
		}
		static, ids := slotOrdered(h.g, live)

		for trial := 0; trial < 6; trial++ {
			q, k := randomVertex(), rng.Intn(12)+1
			radius := 0.05 + rng.Float64()/4
			searches := map[string]func(*core.QueryContext, *Objects) Result{
				"range": func(qc *core.QueryContext, o *Objects) Result { return RangeSearchCtx(h.ix, qc, o, q, radius) },
				"INE": func(qc *core.QueryContext, o *Objects) Result {
					return INESpec(h.ix, qc, o, q, UnboundedSpec(k, VariantKNN))
				},
				"IER": func(qc *core.QueryContext, o *Objects) Result {
					return IERSpec(h.ix, qc, o, q, UnboundedSpec(k, VariantKNN))
				},
			}
			for _, v := range Variants {
				searches[v.String()] = func(qc *core.QueryContext, o *Objects) Result {
					return SearchSpec(h.ix, qc, o, q, UnboundedSpec(k, v))
				}
			}
			for name, search := range searches {
				qc.ResetForReuse(context.Background())
				got := search(qc, live)
				if want := search(core.NewQueryContext(), live); !sameSearch(got, want) {
					t.Fatalf("bound %d, %s q=%d k=%d: reused context\n%+v\nfresh context\n%+v", live.SlotBound(), name, q, k, got, want)
				}
				if want := relabel(search(core.NewQueryContext(), static), ids); !sameSearch(got, want) {
					t.Fatalf("bound %d, %s q=%d k=%d: live set\n%+v\nfrom-scratch set\n%+v", live.SlotBound(), name, q, k, got, want)
				}
			}
		}
	}
	if !gaps || bounds[1] <= bounds[0] || bounds[2] >= bounds[1] || bounds[3] <= bounds[1] || bounds[4] >= bounds[0]+bounds[2] {
		t.Fatalf("slot bounds %v (gaps %v): want them to climb, fall and climb higher, with gaps", bounds, gaps)
	}
}

// TestStatesGrowGeometrically grows a live set one insert at a time and runs
// a search over every version on ONE query context. The arena's
// slot-indexed state table must be reallocated O(log n) times, not once per
// version, and re-arming it for a query must leave no entry — the spare
// capacity included — stamped with that query's epoch.
func TestStatesGrowGeometrically(t *testing.T) {
	h := roadHarness(t, 10, 10, 4)
	const inserts = 1000
	qc := core.NewQueryContext()
	live := EmptyObjects(h.g)
	reallocs := 0
	for i := 0; i < inserts; i++ {
		live = live.WithInserted(int32(i), int32(i), graph.VertexID(i%h.g.NumVertices()))
		qc.ResetForReuse(context.Background())
		sc := scratchFor(qc)
		before := cap(sc.eng.states)
		SearchSpec(h.ix, qc, live, 0, UnboundedSpec(3, VariantKNN))
		if cap(sc.eng.states) != before {
			reallocs++
		}
		e := sc.engineFor(h.ix, qc, live, 0, 3, VariantKNN)
		for j, st := range e.states[:cap(e.states)] {
			if st.epoch == e.epoch {
				t.Fatalf("version %d: re-armed table holds slot %d stamped with the new epoch %d", i, j, e.epoch)
			}
		}
	}
	if bound := 2 * bits.Len(inserts); reallocs > bound {
		t.Fatalf("state table reallocated %d times over %d single inserts, want O(log n) ≤ %d", reallocs, inserts, bound)
	}
	t.Logf("state table reallocated %d times over %d single inserts", reallocs, inserts)
}
