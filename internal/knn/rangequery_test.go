package knn

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/partition"
	"silc/internal/sssp"
	"silc/internal/store"
	"silc/internal/testkit"
)

// rangeTruth returns the ids of objects within radius by brute force.
func rangeTruth(h *harness, objs *Objects, q graph.VertexID, radius float64) map[int32]float64 {
	tree := sssp.Dijkstra(h.g, q)
	out := make(map[int32]float64)
	for id := int32(0); id < int32(objs.Len()); id++ {
		if d := tree.Dist[objs.ByID(id).Vertex]; d <= radius {
			out[id] = d
		}
	}
	return out
}

func checkRange(t *testing.T, name string, res Result, want map[int32]float64) {
	t.Helper()
	got := make(map[int32]bool, len(res.Neighbors))
	for _, nb := range res.Neighbors {
		if got[nb.Object.ID] {
			t.Fatalf("%s: duplicate object %d", name, nb.Object.ID)
		}
		got[nb.Object.ID] = true
		d, ok := want[nb.Object.ID]
		if !ok {
			t.Fatalf("%s: object %d reported but out of range", name, nb.Object.ID)
		}
		if nb.Interval.Lo > d+distTol || nb.Interval.Hi < d-distTol {
			t.Fatalf("%s: interval [%v,%v] misses true %v", name, nb.Interval.Lo, nb.Interval.Hi, d)
		}
	}
	if len(got) != len(want) {
		missing := []int32{}
		for id := range want {
			if !got[id] {
				missing = append(missing, id)
			}
		}
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		t.Fatalf("%s: returned %d of %d; missing %v", name, len(got), len(want), missing)
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	h := roadHarness(t, 10, 10, 31)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		objs := h.randomObjects(rng.Intn(40)+1, rng)
		q := graph.VertexID(rng.Intn(h.g.NumVertices()))
		radius := rng.Float64() * 0.8
		want := rangeTruth(h, objs, q, radius)
		checkRange(t, "RANGE", RangeSearchCtx(h.ix, nil, objs, q, radius), want)
	}
}

func TestRangeSearchOnRandomTopology(t *testing.T) {
	g, err := testkit.GenerateRandomConnected(60, 50, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, g)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		objs := h.randomObjects(rng.Intn(30)+1, rng)
		q := graph.VertexID(rng.Intn(g.NumVertices()))
		radius := rng.Float64() * 1.5
		want := rangeTruth(h, objs, q, radius)
		checkRange(t, "RANGE", RangeSearchCtx(h.ix, nil, objs, q, radius), want)
	}
}

func TestRangeSearchEdgeCases(t *testing.T) {
	h := roadHarness(t, 8, 8, 33)
	rng := rand.New(rand.NewSource(11))
	objs := h.randomObjects(20, rng)
	q := objs.ByID(0).Vertex

	// Zero radius: exactly the objects at q.
	res := RangeSearchCtx(h.ix, nil, objs, q, 0)
	if len(res.Neighbors) != len(objs.AtVertex(q)) {
		t.Fatalf("radius 0: got %d want %d", len(res.Neighbors), len(objs.AtVertex(q)))
	}
	// Negative radius: empty.
	if res := RangeSearchCtx(h.ix, nil, objs, q, -1); len(res.Neighbors) != 0 {
		t.Fatal("negative radius returned objects")
	}
	// Huge radius: everything.
	if res := RangeSearchCtx(h.ix, nil, objs, q, 1e9); len(res.Neighbors) != objs.Len() {
		t.Fatalf("huge radius returned %d of %d", len(res.Neighbors), objs.Len())
	}
	// Empty set.
	if res := RangeSearchCtx(h.ix, nil, NewObjects(h.g, nil), q, 1); len(res.Neighbors) != 0 {
		t.Fatal("empty set returned objects")
	}
}

func TestRangeSearchRefinesOnlyStraddlers(t *testing.T) {
	// Objects far outside or far inside the radius must not be refined:
	// refinement count should be well below full-path refinement for all
	// objects.
	h := roadHarness(t, 12, 12, 35)
	rng := rand.New(rand.NewSource(13))
	objs := h.randomObjects(60, rng)
	q := graph.VertexID(rng.Intn(h.g.NumVertices()))
	res := RangeSearchCtx(h.ix, nil, objs, q, 0.3)

	full := 0
	tree := sssp.Dijkstra(h.g, q)
	for id := int32(0); id < int32(objs.Len()); id++ {
		full += len(tree.PathTo(objs.ByID(id).Vertex))
	}
	if res.Stats.Refinements >= full/2 {
		t.Fatalf("range search refined %d times; full refinement would be ~%d", res.Stats.Refinements, full)
	}
	if res.Stats.Lookups == 0 || res.Stats.MaxQueue == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

// rangeOracle is the range search's own loop from before range became a
// variant of the best-first engine, kept as the oracle. It drives the engine
// frame's buffers by hand: pop, prune at the radius, expand a node (and
// announce a leaf's straddlers to a hint-taking index), or refine a popped
// object until it falls on one side of the radius.
func rangeOracle(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, radius float64) Result {
	clock := beginQueryWith(ix, qc)
	e := scratchFor(clock.qc).engineFor(ix, clock.qc, objs, q, 0, VariantINN)
	e.stats.Algorithm = "RANGE"

	if radius >= 0 && objs.Len() > 0 {
		e.queue.Push(0, qelem{node: objs.Tree().Root()})
		e.stats.MaxQueue = 1
		for e.queue.Len() > 0 {
			if e.err = clock.qc.Err(); e.err != nil {
				break
			}
			key, el := e.queue.Pop()
			if key > radius {
				break
			}
			if el.node != nil {
				if e.hint != nil {
					e.hintNode(el.node)
				}
				if el.node.IsLeaf() {
					for _, o := range el.node.Objects() {
						st := &e.states[o.ID]
						*st = objState{id: o.ID, refiner: ix.Refine(clock.qc, q, o.Vertex), epoch: e.epoch}
						st.iv = st.refiner.Interval()
						e.stats.Lookups++
						if st.iv.Lo <= radius {
							e.queue.Push(st.iv.Lo, qelem{obj: o.ID})
						}
					}
					if e.hint != nil {
						dsts := e.hintDsts[:0]
						for _, o := range el.node.Objects() {
							if st := &e.states[o.ID]; straddles(st, radius) {
								dsts = append(dsts, o.Vertex)
							}
						}
						e.hintRefine(dsts)
					}
				} else {
					for _, c := range el.node.Children() {
						if c == nil {
							continue
						}
						if lb := ix.RegionLowerBoundCtx(clock.qc, q, c.Cell()); lb <= radius {
							e.queue.Push(lb, qelem{node: c})
						}
					}
				}
				e.noteQueue()
				continue
			}
			st := &e.states[el.obj]
			for straddles(st, radius) && clock.qc.Err() == nil {
				st.refiner.Step()
				e.stats.Refinements++
				st.iv = st.refiner.Interval()
			}
			if st.iv.Hi <= radius || (st.refiner.Done() && st.iv.Lo <= radius) {
				e.results = append(e.results, Neighbor{
					Object:   objs.resultAt(st.id),
					Interval: st.iv,
					Dist:     st.iv.Lo,
					Exact:    st.refiner.Done() || st.iv.Exact(),
				})
			}
		}
	}

	out := e.result()
	out.Sorted = false
	clock.finish(&out.Stats)
	return out
}

// straddles is the exact loop's membership test: st's interval contains
// radius and more refinement can move it off.
func straddles(st *objState, radius float64) bool {
	return st.iv.Lo <= radius && st.iv.Hi > radius && !st.refiner.Done()
}

// sameRange reports the first way got differs from the oracle's answer:
// the neighbours in order, bit for bit, the counters that say what the
// search computed, and the error.
func sameRange(got, want Result) error {
	if len(got.Neighbors) != len(want.Neighbors) {
		return fmt.Errorf("%d neighbours, oracle %d", len(got.Neighbors), len(want.Neighbors))
	}
	for i, g := range got.Neighbors {
		w := want.Neighbors[i]
		if g.Object != w.Object || g.Exact != w.Exact ||
			math.Float64bits(g.Dist) != math.Float64bits(w.Dist) ||
			math.Float64bits(g.Interval.Lo) != math.Float64bits(w.Interval.Lo) ||
			math.Float64bits(g.Interval.Hi) != math.Float64bits(w.Interval.Hi) {
			return fmt.Errorf("neighbour %d is %+v, oracle %+v", i, g, w)
		}
	}
	if got.Sorted || got.Stats.Algorithm != "RANGE" {
		return fmt.Errorf("sorted %v, algorithm %q", got.Sorted, got.Stats.Algorithm)
	}
	if got.Stats.Refinements != want.Stats.Refinements || got.Stats.Lookups != want.Stats.Lookups {
		return fmt.Errorf("refinements %d, lookups %d; oracle %d, %d",
			got.Stats.Refinements, got.Stats.Lookups, want.Stats.Refinements, want.Stats.Lookups)
	}
	if got.Err != want.Err {
		return fmt.Errorf("error %v, oracle %v", got.Err, want.Err)
	}
	return nil
}

// liveWithGaps is a live set of m objects on random vertices whose public
// ids are not its slots, with about a third of them removed again, so free
// slots sit below the slot bound.
func liveWithGaps(g *graph.Network, m int, rng *rand.Rand) *Objects {
	live := EmptyObjects(g)
	for i := 0; i < m; i++ {
		live = live.WithInserted(int32(i), int32(5000+3*i), graph.VertexID(rng.Intn(g.NumVertices())))
	}
	for _, slot := range rng.Perm(m)[:m/3] {
		if live.Len() > 1 {
			live = live.WithRemoved(int32(slot))
		}
	}
	return live
}

// callLog is a hint-taking index that records, in order, every lookup,
// region bound and hint a search makes of the in-RAM index it wraps.
type callLog struct {
	core.QueryIndex
	calls []string
}

func (c *callLog) WantsExpandHints() bool { return true }

func (c *callLog) HintExpand(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID, cells []geom.Cell) {
	c.calls = append(c.calls, fmt.Sprint("expand ", src, dsts, cells))
}

func (c *callLog) HintRefine(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID) {
	c.calls = append(c.calls, fmt.Sprint("race ", src, dsts))
}

func (c *callLog) Refine(qc *core.QueryContext, src, dst graph.VertexID) core.DistanceRefiner {
	c.calls = append(c.calls, fmt.Sprint("lookup ", src, dst))
	return c.QueryIndex.Refine(qc, src, dst)
}

func (c *callLog) RegionLowerBoundCtx(qc *core.QueryContext, q graph.VertexID, cell geom.Cell) float64 {
	c.calls = append(c.calls, fmt.Sprint("bound ", q, cell))
	return c.QueryIndex.RegionLowerBoundCtx(qc, q, cell)
}

// take returns the calls recorded since the last take.
func (c *callLog) take() []string {
	out := c.calls
	c.calls = nil
	return out
}

// TestRangeMatchesDeletedLoop: the range query on the best-first engine
// answers every case exactly as the deleted loop did — the same objects in
// the same order, bit-equal intervals, the same Exact flags and the same
// refinement and lookup counts — on three index kinds (in-RAM, 4-cell
// sharded, paged behind a 5% pool), over static sets and live sets with free
// slots below the slot bound, at radii 0, small, large and beyond every
// object. A fourth, hint-taking kind checks that the engine makes the loop's index calls
// and hints in the loop's order. A pre-cancelled context returns the
// oracle's partial result and error.
func TestRangeMatchesDeletedLoop(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 24, Cols: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ram, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := partition.Build(g, partition.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := ram.WritePaged(&img); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(img.Bytes()), int64(img.Len()), store.OpenOptions{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	paged := core.NewPagedIndex(core.PagedConfig{Source: st})

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(27))
	n := g.NumVertices()
	calls := &callLog{QueryIndex: ram}
	reported, refined := 0, 0
	for _, kind := range []struct {
		name string
		ix   core.QueryIndex
	}{{"ram", ram}, {"sharded", sharded}, {"paged", paged}, {"hinted", calls}} {
		for i := 0; i < 150; i++ {
			m := 1 + rng.Intn(n/3)
			var objs *Objects
			if i%2 == 0 {
				objs = (&harness{g: g}).randomObjects(m, rng)
			} else {
				objs = liveWithGaps(g, m+1, rng)
			}
			q := graph.VertexID(rng.Intn(n))
			radius := [...]float64{0, rng.Float64() / 10, rng.Float64(), 1e9, math.Inf(1)}[i%5]
			want := rangeOracle(kind.ix, core.NewQueryContext(), objs, q, radius)
			wantCalls := calls.take()
			got := RangeSearchCtx(kind.ix, core.NewQueryContext(), objs, q, radius)
			if err := sameRange(got, want); err != nil {
				t.Fatalf("%s case %d (|S|=%d, bound %d, q=%d, radius %v): %v", kind.name, i, objs.Len(), objs.SlotBound(), q, radius, err)
			}
			// The same index calls in the same order, hints included; the
			// engine may stop early once it has reported every object.
			if gotCalls := calls.take(); len(gotCalls) > len(wantCalls) || !slices.Equal(gotCalls, wantCalls[:len(gotCalls)]) ||
				(len(gotCalls) < len(wantCalls) && len(got.Neighbors) < objs.Len()) {
				t.Fatalf("%s case %d (q=%d, radius %v): index calls\n%v\noracle's\n%v", kind.name, i, q, radius, gotCalls, wantCalls)
			}
			reported += len(got.Neighbors)
			refined += got.Stats.Refinements
			if i%7 == 0 {
				want := rangeOracle(kind.ix, core.NewQueryContextFor(cancelled), objs, q, radius)
				got := RangeSearchCtx(kind.ix, core.NewQueryContextFor(cancelled), objs, q, radius)
				if err := sameRange(got, want); err != nil || got.Err == nil {
					t.Fatalf("%s case %d, cancelled: %v (error %v)", kind.name, i, err, got.Err)
				}
			}
		}
	}
	if reported == 0 || refined == 0 {
		t.Fatalf("%d neighbours reported, %d refinements: the cases miss a kind", reported, refined)
	}
	t.Logf("%d neighbours reported, %d refinements", reported, refined)
}

// TestEpsilonSavesRefinements measures ε = 0.1 against ε = 0 on the 48×48
// road map (seed 1) with 5% of its vertices as objects. A range query at
// the query's 10th-neighbour distance must spend at most half the
// refinements per query, and a distance between random vertices must take
// fewer refinement steps per pair.
func TestEpsilonSavesRefinements(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 48, Cols: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(1))
	vs := make([]graph.VertexID, n/20)
	for i, v := range rng.Perm(n)[:len(vs)] {
		vs[i] = graph.VertexID(v)
	}
	objs := NewObjects(g, vs)
	queries := make([]graph.VertexID, 64)
	radii := make([]float64, len(queries))
	for i := range queries {
		queries[i] = graph.VertexID(rng.Intn(n))
		dist := sssp.Dijkstra(g, queries[i]).Dist
		ds := make([]float64, len(vs))
		for j, v := range vs {
			ds[j] = dist[v]
		}
		slices.Sort(ds)
		radii[i] = ds[9]
	}
	pairs := make([][2]graph.VertexID, 256)
	for i := range pairs {
		pairs[i] = [2]graph.VertexID{graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))}
	}

	var rangeRef, distSteps [2]float64
	for i, eps := range []float64{0, 0.1} {
		for j, q := range queries {
			spec := Spec{K: objs.Len(), Variant: VariantRange, Epsilon: eps, MaxDist: radii[j]}
			rangeRef[i] += float64(SearchSpec(ix, core.NewQueryContext(), objs, q, spec).Stats.Refinements)
		}
		for _, p := range pairs {
			qc := core.NewQueryContext()
			core.ApproxDistance(ix, qc, p[0], p[1], eps)
			distSteps[i] += float64(qc.Span.Refinements)
		}
		rangeRef[i] /= float64(len(queries))
		distSteps[i] /= float64(len(pairs))
	}
	t.Logf("range refinements per query: %.1f at ε=0, %.1f at ε=0.1", rangeRef[0], rangeRef[1])
	t.Logf("distance steps per pair: %.1f at ε=0, %.1f at ε=0.1", distSteps[0], distSteps[1])
	if rangeRef[1] > 0.5*rangeRef[0] {
		t.Errorf("ε=0.1 range spent %.1f refinements per query, more than half of ε=0's %.1f", rangeRef[1], rangeRef[0])
	}
	if distSteps[1] >= distSteps[0] {
		t.Errorf("ε=0.1 distance took %.1f steps per pair, ε=0 %.1f", distSteps[1], distSteps[0])
	}
}
