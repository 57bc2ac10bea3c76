package partition

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/objstore"
	"silc/internal/pmr"
	"silc/internal/quadtree"
	"silc/internal/store"
)

// The region lower bound before it read cells: q's whole quadtree walked from
// the root against the node's closed rectangle, every block the rectangle
// touches contributing LamLo times the distance to their overlap. It lives
// here only, as the oracle of TestCellBoundAnswersUnchanged.

func rectTreeBound(t *quadtree.Tree, q geom.Point, rect geom.Rect) float64 {
	best := math.Inf(1)
	rectVisit(t, geom.RootCell(), geom.RootCell().Rect(), 0, len(t.Blocks), q, rect, &best)
	return best
}

func rectVisit(t *quadtree.Tree, cell geom.Cell, cellRect geom.Rect, lo, hi int, q geom.Point, rect geom.Rect, best *float64) {
	if lo == hi {
		return
	}
	overlap := geom.Rect{MinX: max(cellRect.MinX, rect.MinX), MinY: max(cellRect.MinY, rect.MinY),
		MaxX: min(cellRect.MaxX, rect.MaxX), MaxY: min(cellRect.MaxY, rect.MaxY)}
	if overlap.MinX > overlap.MaxX || overlap.MinY > overlap.MaxY || overlap.MinDist(q)*t.MinLambda >= *best {
		return
	}
	if b := t.Blocks[lo]; b.Cell == cell {
		if d := overlap.MinDist(q) * float64(b.LamLo); d < *best {
			*best = d
		}
		return
	}
	midX, midY := (cellRect.MinX+cellRect.MaxX)/2, (cellRect.MinY+cellRect.MaxY)/2
	at := lo
	for i := 0; i < 4; i++ {
		child := cell.Child(i)
		sub := at + sort.Search(hi-at, func(j int) bool { return t.Blocks[at+j].Cell.Code >= child.End() })
		childRect := cellRect
		if i&1 == 0 {
			childRect.MaxX = midX
		} else {
			childRect.MinX = midX
		}
		if i&2 == 0 {
			childRect.MaxY = midY
		} else {
			childRect.MinY = midY
		}
		rectVisit(t, child, childRect, at, sub, q, rect, best)
		at = sub
	}
}

// rectBound answers RegionLowerBoundCtx with the rectangle bound of the
// node's cell; everything else is the wrapped index's.
type rectBound struct {
	core.QueryIndex
	bound func(qc *core.QueryContext, q graph.VertexID, rect geom.Rect) float64
}

func (r rectBound) RegionLowerBoundCtx(qc *core.QueryContext, q graph.VertexID, cell geom.Cell) float64 {
	return r.bound(qc, q, cell.Rect())
}

func coreRectBound(ix *core.Index) func(*core.QueryContext, graph.VertexID, geom.Rect) float64 {
	return func(qc *core.QueryContext, q graph.VertexID, rect geom.Rect) float64 {
		p := ix.Network().Point(q)
		if p.X >= rect.MinX && p.X <= rect.MaxX && p.Y >= rect.MinY && p.Y <= rect.MaxY {
			return 0
		}
		t, ok := ix.Tree(qc, q)
		if !ok {
			return 0
		}
		return rectTreeBound(t, p, rect)
	}
}

// shardedRectBound is the sharded bound as it was: every partition whose
// vertices' bounding box touches the rectangle contributes — the source's
// own by its quadtree's rectangle bound, the others by their nearest gateway.
func shardedRectBound(s *Sharded) func(*core.QueryContext, graph.VertexID, geom.Rect) float64 {
	boxes := make([]geom.Rect, s.asn.P)
	for c, vs := range s.asn.Verts {
		p := s.g.Point(vs[0])
		boxes[c] = geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
		for _, v := range vs {
			p := s.g.Point(v)
			boxes[c].MinX, boxes[c].MaxX = min(boxes[c].MinX, p.X), max(boxes[c].MaxX, p.X)
			boxes[c].MinY, boxes[c].MaxY = min(boxes[c].MinY, p.Y), max(boxes[c].MaxY, p.Y)
		}
	}
	return func(qc *core.QueryContext, q graph.VertexID, rect geom.Rect) float64 {
		p := s.asn.CellOf[q]
		best := math.Inf(1)
		for c := int32(0); c < int32(s.asn.P); c++ {
			if b := boxes[c]; b.MinX > rect.MaxX || rect.MinX > b.MaxX || b.MinY > rect.MaxY || rect.MinY > b.MaxY {
				continue
			}
			var m float64
			if c == p {
				m = coreRectBound(s.cells[p].ix)(qc, graph.VertexID(s.asn.LocalOf[q]), rect)
				if !s.selfContained[p] {
					m = min(m, s.routerFor(qc, q).minInto(p))
				}
			} else {
				m = s.routerFor(qc, q).minInto(c)
			}
			best = min(best, m)
		}
		return best
	}
}

// boundTally sums the search counters the two bounds may move.
type boundTally struct{ lookups, pushes, refinements int64 }

func (b *boundTally) add(qc *core.QueryContext) {
	b.addAll(boundTally{qc.Span.Lookups, qc.Span.HeapPushes, qc.Span.Refinements})
}

func (b *boundTally) addAll(o boundTally) {
	b.lookups, b.pushes, b.refinements = b.lookups+o.lookups, b.pushes+o.pushes, b.refinements+o.refinements
}

// boundRun is one pass of the differential's query mix over one index: for
// every query, KNN, INN and KNN-I loose and then refined to exact, KNN-M as a
// set, and a range search as a set.
func boundRun(ix core.QueryIndex, objs *knn.Objects, qs []graph.VertexID, k int, radius float64) ([][]knn.Neighbor, boundTally) {
	var out [][]knn.Neighbor
	var tally boundTally
	for _, q := range qs {
		for _, v := range []knn.Variant{knn.VariantKNN, knn.VariantINN, knn.VariantKNNI} {
			qc := core.NewQueryContext()
			res := knn.SearchSpec(ix, qc, objs, q, knn.UnboundedSpec(k, v))
			out = append(out, slices.Clone(res.Neighbors))
			for i := range res.Neighbors {
				if n := &res.Neighbors[i]; !n.Exact {
					d := core.ExactDistance(ix, qc, q, n.Object.Vertex)
					n.Dist, n.Interval, n.Exact = d, core.Interval{Lo: d, Hi: d}, true
				}
			}
			out = append(out, res.Neighbors)
			tally.add(qc)
		}
		qc := core.NewQueryContext()
		res := knn.SearchSpec(ix, qc, objs, q, knn.UnboundedSpec(k, knn.VariantKNNM))
		out = append(out, res.Neighbors)
		tally.add(qc)
		qc = core.NewQueryContext()
		out = append(out, knn.RangeSearchCtx(ix, qc, objs, q, radius).Neighbors)
		tally.add(qc)
	}
	return out, tally
}

// sameAnswers compares two ranked answers of the same query: the distance
// bits at every rank when they are exact (not the loose lower bounds a search
// stops refining at), and the ids at every rank, where two objects at the same
// exact distance may trade places.
func sameAnswers(got, want []knn.Neighbor, exactDists bool, exactOf func(pmr.Object) float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if exactDists && math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("rank %d at %v, want %v", i, got[i].Dist, want[i].Dist)
		}
		if g, w := got[i].Object, want[i].Object; g.ID != w.ID && exactOf(g) != exactOf(w) {
			return fmt.Errorf("rank %d is object %d, want %d", i, g.ID, w.ID)
		}
	}
	return nil
}

// sameSet compares two unranked answers: the same ids, or — where a kNN-M
// answer's k-th place is tied, exactOf != nil — the same exact distances.
func sameSet(got, want []knn.Neighbor, exactOf func(pmr.Object) float64) error {
	ids := func(nbs []knn.Neighbor) (out []int32) {
		for _, nb := range nbs {
			out = append(out, nb.Object.ID)
		}
		slices.Sort(out)
		return out
	}
	dists := func(nbs []knn.Neighbor) (out []float64) {
		for _, nb := range nbs {
			out = append(out, exactOf(nb.Object))
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(ids(got), ids(want)) && (exactOf == nil || !slices.Equal(dists(got), dists(want))) {
		return fmt.Errorf("objects %v, want %v", ids(got), ids(want))
	}
	return nil
}

// liveObjects is a live world at the given density: seeded one insert at a
// time, then churned by moves, removals and inserts, so its tree is the
// path-copied one a live view searches.
func liveObjects(g *graph.Network, density float64, rng *rand.Rand) *knn.Objects {
	st := objstore.New(g, objstore.Options{})
	defer st.Close()
	n := g.NumVertices()
	var ids []int32
	for len(ids) < int(density*float64(n)) {
		id, _ := st.Insert(graph.VertexID(rng.Intn(n)))
		ids = append(ids, id)
	}
	for i := 0; i < 3*len(ids); i++ {
		j := rng.Intn(len(ids))
		switch rng.Intn(3) {
		case 0:
			st.Move(ids[j], graph.VertexID(rng.Intn(n)))
		case 1:
			st.Remove(ids[j])
			ids[j], _ = st.Insert(graph.VertexID(rng.Intn(n)))
		default:
			st.Move(ids[j], graph.VertexID(rng.Intn(n/8))) // crowd one corner
		}
	}
	return st.Snapshot().Objects
}

// TestCellBoundAnswersUnchanged: on four index kinds — monolithic, 4-cell
// sharded, paged behind a 5% pool, and live views at 2.5%, 5% and 30%
// density — every query of the mix answers exactly what it answered with the
// rectangle bound, and the tighter cell bound costs no more lookups or heap
// pushes and at most 1% more refinements in sum.
func TestCellBoundAnswersUnchanged(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 28, Cols: 28, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(g, Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := mono.WritePaged(&img); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(img.Bytes()), int64(img.Len()), store.OpenOptions{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	paged := core.NewPagedIndex(core.PagedConfig{Source: st})

	n := g.NumVertices()
	rng := rand.New(rand.NewSource(25))
	static := func(density float64) *knn.Objects {
		var vs []graph.VertexID
		for _, v := range rng.Perm(n)[:int(density*float64(n))] {
			vs = append(vs, graph.VertexID(v))
		}
		return knn.NewObjects(g, vs)
	}
	type kind struct {
		name   string
		ix     core.QueryIndex
		oracle func(*core.QueryContext, graph.VertexID, geom.Rect) float64
		objs   *knn.Objects
	}
	var kinds []kind
	for _, d := range []float64{0.05, 0.3} {
		objs := static(d)
		kinds = append(kinds,
			kind{name: fmt.Sprintf("monolithic/%g", d), ix: mono, oracle: coreRectBound(mono), objs: objs},
			kind{name: fmt.Sprintf("sharded/%g", d), ix: sharded, oracle: shardedRectBound(sharded), objs: objs},
			kind{name: fmt.Sprintf("paged/%g", d), ix: paged, oracle: coreRectBound(paged), objs: objs})
	}
	for _, d := range []float64{0.025, 0.05, 0.3} {
		kinds = append(kinds, kind{name: fmt.Sprintf("live/%g", d), ix: mono, oracle: coreRectBound(mono), objs: liveObjects(g, d, rng)})
	}

	var sumOld, sumNew boundTally
	for _, kd := range kinds {
		qs := make([]graph.VertexID, 100)
		for i := range qs {
			qs[i] = graph.VertexID(rng.Intn(n))
		}
		k, radius := 1+rng.Intn(12), 0.05+rng.Float64()/5
		want, old := boundRun(rectBound{QueryIndex: kd.ix, bound: kd.oracle}, kd.objs, qs, k, radius)
		got, now := boundRun(kd.ix, kd.objs, qs, k, radius)
		for qi, q := range qs {
			exactOf := func(o pmr.Object) float64 { return core.ExactDistance(kd.ix, core.NewQueryContext(), q, o.Vertex) }
			// Per query: KNN, INN and KNN-I each loose and then refined to
			// exact, KNN-M, range.
			for r := 0; r < 8; r++ {
				i := qi*8 + r
				var err error
				switch {
				case r < 6:
					err = sameAnswers(got[i], want[i], r%2 == 1, exactOf)
				case r == 6:
					err = sameSet(got[i], want[i], exactOf)
				default: // a range answer has no k-th place to tie at
					err = sameSet(got[i], want[i], nil)
				}
				if err != nil {
					t.Fatalf("%s q=%d k=%d radius=%v, run %d: %v", kd.name, q, k, radius, r, err)
				}
			}
		}
		t.Logf("%-16s lookups %6d → %6d  pushes %6d → %6d  refinements %6d → %6d",
			kd.name, old.lookups, now.lookups, old.pushes, now.pushes, old.refinements, now.refinements)
		sumOld.addAll(old)
		sumNew.addAll(now)
	}
	t.Logf("Σ lookups %d → %d, pushes %d → %d, refinements %d → %d",
		sumOld.lookups, sumNew.lookups, sumOld.pushes, sumNew.pushes, sumOld.refinements, sumNew.refinements)
	if sumNew.lookups > sumOld.lookups || sumNew.pushes > sumOld.pushes || float64(sumNew.refinements) > 1.01*float64(sumOld.refinements) {
		t.Fatalf("the cell bound costs more: Σ lookups %d → %d, pushes %d → %d, refinements %d → %d",
			sumOld.lookups, sumNew.lookups, sumOld.pushes, sumNew.pushes, sumOld.refinements, sumNew.refinements)
	}
}
