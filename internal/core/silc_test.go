package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/sssp"
	"silc/internal/store"
	"silc/internal/testkit"
)

func buildIndex(t testing.TB, g *graph.Network) *Index {
	t.Helper()
	ix, err := Build(g, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func roadNet(t testing.TB, rows, cols int, seed int64) *graph.Network {
	t.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testPairs yields a deterministic sample of vertex pairs.
func testPairs(g *graph.Network, count int, seed int64) [][2]graph.VertexID {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	pairs := make([][2]graph.VertexID, count)
	for i := range pairs {
		pairs[i] = [2]graph.VertexID{
			graph.VertexID(rng.Intn(n)),
			graph.VertexID(rng.Intn(n)),
		}
	}
	return pairs
}

func TestIntervalContainsTrueDistanceAllPairs(t *testing.T) {
	// Exhaustive containment check on a small network: the zero-refinement
	// interval must contain the Dijkstra distance for every pair.
	g := roadNet(t, 7, 7, 1)
	ix := buildIndex(t, g)
	for s := 0; s < g.NumVertices(); s++ {
		tree := sssp.Dijkstra(g, graph.VertexID(s))
		for v := 0; v < g.NumVertices(); v++ {
			iv := ix.DistanceIntervalCtx(nil, graph.VertexID(s), graph.VertexID(v))
			d := tree.Dist[v]
			if s == v {
				if iv.Lo != 0 || iv.Hi != 0 {
					t.Fatalf("self interval = %+v", iv)
				}
				continue
			}
			if iv.Lo > d+1e-9 || iv.Hi < d-1e-9 {
				t.Fatalf("interval [%v,%v] misses true %v for (%d,%d)", iv.Lo, iv.Hi, d, s, v)
			}
			if iv.Lo < 0 {
				t.Fatalf("negative lower bound %v", iv.Lo)
			}
		}
	}
}

func TestRefinementMonotoneAndConvergesToExact(t *testing.T) {
	g := roadNet(t, 9, 9, 2)
	ix := buildIndex(t, g)
	for _, pair := range testPairs(g, 120, 3) {
		s, d := pair[0], pair[1]
		truth := sssp.ShortestPath(g, s, d)
		r := ix.NewRefinerCtx(nil, s, d)
		prev := r.Interval()
		if s == d {
			if !r.Done() {
				t.Fatal("refiner for identical pair not done")
			}
			continue
		}
		steps := 0
		for !r.Done() {
			r.Step()
			cur := r.Interval()
			if cur.Lo < prev.Lo-1e-9 || cur.Hi > prev.Hi+1e-9 {
				t.Fatalf("interval widened: %+v -> %+v", prev, cur)
			}
			if cur.Lo > truth.Dist+1e-9 || cur.Hi < truth.Dist-1e-9 {
				t.Fatalf("interval [%v,%v] lost true distance %v", cur.Lo, cur.Hi, truth.Dist)
			}
			prev = cur
			steps++
			if steps > g.NumVertices() {
				t.Fatal("refinement did not terminate")
			}
		}
		// Convergence in at most path-hop-count steps.
		if hops := len(sssp.Dijkstra(g, s).PathTo(d)) - 1; steps > hops {
			t.Fatalf("took %d refinements for a %d-hop path", steps, hops)
		}
		final := r.Interval()
		if math.Abs(final.Lo-truth.Dist) > 1e-9 || !final.Exact() {
			t.Fatalf("final interval %+v, true %v", final, truth.Dist)
		}
		if r.Steps() != steps {
			t.Fatalf("Steps()=%d counted %d", r.Steps(), steps)
		}
	}
}

func TestViaExposesExactPrefix(t *testing.T) {
	g := roadNet(t, 8, 8, 5)
	ix := buildIndex(t, g)
	for _, pair := range testPairs(g, 40, 7) {
		s, d := pair[0], pair[1]
		if s == d {
			continue
		}
		r := ix.NewRefinerCtx(nil, s, d)
		for !r.Done() {
			r.Step()
			via, acc := r.Via()
			want := sssp.ShortestPath(g, s, via)
			// acc must be an exact distance to the intermediate vertex.
			if via != s && math.Abs(acc-want.Dist) > 1e-9 {
				t.Fatalf("Via prefix %v to %d, Dijkstra says %v", acc, via, want.Dist)
			}
		}
	}
}

func TestDistanceMatchesDijkstra(t *testing.T) {
	g := roadNet(t, 9, 9, 4)
	ix := buildIndex(t, g)
	for _, pair := range testPairs(g, 150, 11) {
		s, d := pair[0], pair[1]
		want := sssp.ShortestPath(g, s, d).Dist
		if s == d {
			want = 0
		}
		if got := ix.DistanceCtx(nil, s, d); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Distance(%d,%d)=%v want %v", s, d, got, want)
		}
	}
}

func TestPathIsShortestAndValid(t *testing.T) {
	g := roadNet(t, 9, 9, 6)
	ix := buildIndex(t, g)
	for _, pair := range testPairs(g, 100, 13) {
		s, d := pair[0], pair[1]
		path := ix.PathCtx(nil, s, d)
		if path[0] != s || path[len(path)-1] != d {
			t.Fatalf("path endpoints %v", path)
		}
		want := sssp.ShortestPath(g, s, d).Dist
		if s == d {
			if len(path) != 1 {
				t.Fatalf("self path = %v", path)
			}
			continue
		}
		got := testkit.PathWeight(g, path)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("path weight %v want %v", got, want)
		}
	}
}

func TestNextHopAgreesWithSomeShortestPath(t *testing.T) {
	g := roadNet(t, 8, 8, 8)
	ix := buildIndex(t, g)
	for _, pair := range testPairs(g, 80, 17) {
		s, d := pair[0], pair[1]
		if s == d {
			if ix.NextHopCtx(nil, s, d) != d {
				t.Fatal("NextHop(self) != self")
			}
			continue
		}
		hop := ix.NextHopCtx(nil, s, d)
		w, ok := g.EdgeWeight(s, hop)
		if !ok {
			t.Fatalf("NextHop %d not adjacent to %d", hop, s)
		}
		// Optimal substructure: w + d(hop, dst) == d(s, dst).
		dHop := sssp.ShortestPath(g, hop, d).Dist
		if hop == d {
			dHop = 0
		}
		dFull := sssp.ShortestPath(g, s, d).Dist
		if math.Abs(w+dHop-dFull) > 1e-9 {
			t.Fatalf("NextHop %d is not on a shortest path: %v + %v != %v", hop, w, dHop, dFull)
		}
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder()
	u := b.AddVertex(geom.Point{X: 0.1, Y: 0.1})
	v := b.AddVertex(geom.Point{X: 0.2, Y: 0.1})
	b.AddBiEdge(u, v, 1)
	b.AddVertex(geom.Point{X: 0.9, Y: 0.9}) // isolated
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, BuildOptions{}); err == nil {
		t.Fatal("expected error for disconnected network")
	}
}

func TestBuildStats(t *testing.T) {
	g := roadNet(t, 10, 10, 9)
	ix := buildIndex(t, g)
	s := ix.Stats()
	if s.Vertices != g.NumVertices() || s.Edges != g.NumEdges() {
		t.Fatalf("stats shape %+v", s)
	}
	var total int64
	for v := 0; v < g.NumVertices(); v++ {
		b := ix.BlockCount(graph.VertexID(v))
		total += int64(b)
		if b < s.MinBlocks || b > s.MaxBlocks {
			t.Fatalf("block count %d outside [%d,%d]", b, s.MinBlocks, s.MaxBlocks)
		}
	}
	if total != s.TotalBlocks {
		t.Fatalf("TotalBlocks %d, summed %d", s.TotalBlocks, total)
	}
	if s.TotalBytes != total*16 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes)
	}
	if s.BlocksPerVertex() <= 0 {
		t.Fatal("BlocksPerVertex should be positive")
	}
	if s.BuildTime <= 0 {
		t.Fatal("BuildTime not recorded")
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	g := roadNet(t, 8, 8, 10)
	serial, err := Build(g, BuildOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Build(g, BuildOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Stats().TotalBlocks != parallel.Stats().TotalBlocks {
		t.Fatalf("block totals differ: %d vs %d",
			serial.Stats().TotalBlocks, parallel.Stats().TotalBlocks)
	}
	for _, pair := range testPairs(g, 50, 23) {
		a := serial.DistanceIntervalCtx(nil, pair[0], pair[1])
		b := parallel.DistanceIntervalCtx(nil, pair[0], pair[1])
		if a != b {
			t.Fatalf("intervals differ for %v: %+v vs %+v", pair, a, b)
		}
	}
}

// scanRegionBound is RegionLowerBound's oracle: 0 for a cell holding q,
// else a linear scan of q's blocks — a block covering the cell bounds it by
// LamLo times the distance to the cell, otherwise the bound is the minimum
// over the blocks inside the cell of LamLo times the distance to the block.
func scanRegionBound(t *testing.T, ix *Index, q graph.VertexID, cell geom.Cell) float64 {
	if cell.ContainsCode(ix.g.Code(q)) {
		return 0
	}
	tree, ok := ix.Tree(nil, q)
	if !ok {
		t.Fatalf("no tree for %d", q)
	}
	p := ix.g.Point(q)
	best := math.Inf(1)
	for _, b := range tree.Blocks {
		switch {
		case b.Cell.Level <= cell.Level && b.Cell.ContainsCode(cell.Code):
			return float64(b.LamLo) * cell.Rect().MinDist(p)
		case b.Cell.Level >= cell.Level && cell.ContainsCode(b.Cell.Code):
			if d := float64(b.LamLo) * b.Cell.Rect().MinDist(p); d < best {
				best = d
			}
		}
	}
	return best
}

// checkRegionBounds: for sampled sources, at every level 0..16 of the cells
// around sampled vertices and random codes, ix's region bound is bit for bit
// the scan oracle (paged and in RAM alike), 0 on a cell holding q, and never
// above Dijkstra's distance to a vertex of the cell the index covers (within
// radius, reachable).
func checkRegionBounds(t *testing.T, name string, ix *Index, radius float64) {
	t.Helper()
	g := ix.g
	n := g.NumVertices()
	paged := pagedIndex(t, ix, 0.05)
	rng := rand.New(rand.NewSource(int64(n)))
	for trial := 0; trial < 6; trial++ {
		q := graph.VertexID(rng.Intn(n))
		dist := sssp.Dijkstra(g, q).Dist
		codes := []geom.Code{g.Code(q)}
		for i := 0; i < 8; i++ {
			codes = append(codes, g.Code(graph.VertexID(rng.Intn(n))), geom.Code(rng.Uint64()%geom.Span(0)))
		}
		for _, code := range codes {
			for l := uint8(0); l <= geom.MaxLevel; l++ {
				span := geom.Code(geom.Span(l))
				cell := geom.Cell{Code: code / span * span, Level: l}
				got := ix.RegionLowerBoundCtx(nil, q, cell)
				if want := scanRegionBound(t, ix, q, cell); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s q=%d %v: bound %v, scan %v", name, q, cell, got, want)
				}
				if pg := paged.RegionLowerBoundCtx(nil, q, cell); math.Float64bits(pg) != math.Float64bits(got) {
					t.Fatalf("%s q=%d %v: paged bound %v, in RAM %v", name, q, cell, pg, got)
				}
				for v := 0; v < n; v++ {
					d := dist[v]
					if !cell.ContainsCode(g.Code(graph.VertexID(v))) || (radius > 0 && d > radius) {
						continue
					}
					if got > d {
						t.Fatalf("%s q=%d %v: bound %v exceeds dist(%d)=%v", name, q, cell, got, v, d)
					}
				}
			}
		}
	}
}

func TestRegionLowerBoundValidAgainstDijkstra(t *testing.T) {
	grid, err := graph.GenerateGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := graph.GenerateRingRadial(4, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Network{"road": roadNet(t, 8, 8, 12), "grid": grid, "ring": ring} {
		checkRegionBounds(t, name, buildIndex(t, g), 0)
	}
}

// TestLenientRegionLowerBoundStillValid: on a lenient index over a network
// with one-way streets, a vertex nothing reaches and a vertex that reaches
// nothing, trees leave the unreachable vertices uncovered and the bound still
// holds for every vertex that is reachable.
func TestLenientRegionLowerBoundStillValid(t *testing.T) {
	ix, err := Build(oneWayLenient(t), BuildOptions{AllowUnreachable: true})
	if err != nil {
		t.Fatal(err)
	}
	checkRegionBounds(t, "lenient", ix, 0)
}

// oneWayLenient is a 7×7 lattice whose odd streets are one-way, plus a
// source vertex that reaches the lattice but is unreachable from it and a
// sink that is reachable only from the lattice.
func oneWayLenient(t *testing.T) *graph.Network {
	const n = 7
	b := graph.NewBuilder()
	at := func(r, c int) graph.VertexID { return graph.VertexID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b.AddVertex(geom.Point{X: (float64(c) + 0.5) / n, Y: (float64(r) + 0.5) / n})
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c+1 < n; c++ {
			b.AddEdge(at(r, c), at(r, c+1), 1.0/n)
			b.AddEdge(at(c+1, r), at(c, r), 1.0/n)
			if r%2 == 0 { // every other street is two-way
				b.AddEdge(at(r, c+1), at(r, c), 1.4/n)
				b.AddEdge(at(c, r), at(c+1, r), 1.4/n)
			}
		}
	}
	src := b.AddVertex(geom.Point{X: 0.97, Y: 0.03}) // reaches the lattice, unreachable from it
	sink := b.AddVertex(geom.Point{X: 0.03, Y: 0.97})
	b.AddEdge(src, at(0, n-1), 0.1)
	b.AddEdge(at(n-1, 0), sink, 0.1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pagedIndex reopens ix demand-paged from its paged image, behind a pool of
// the given fraction of its pages.
func pagedIndex(t *testing.T, ix *Index, fraction float64) *Index {
	t.Helper()
	var img bytes.Buffer
	if _, err := ix.WritePaged(&img); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(img.Bytes()), int64(img.Len()), store.OpenOptions{CacheFraction: fraction})
	if err != nil {
		t.Fatal(err)
	}
	return NewPagedIndex(PagedConfig{Graph: st.Graph(), Source: st, Tracker: st.Tracker(),
		Lenient: st.Lenient()})
}

func TestPagedIndexTracksIO(t *testing.T) {
	g := roadNet(t, 8, 8, 14)
	mem := buildIndex(t, g)
	ix := pagedIndex(t, mem, 0.05)
	pool := ix.Pool()
	if pool == nil {
		t.Fatal("pool missing")
	}
	// The pool is the cache fraction of the pages a query can read: the
	// image's block pages.
	blockPages := ix.src.(*store.Store).BlockPages()
	if got, want := pool.Capacity(), max(int(float64(blockPages)*0.05), 1); got != want {
		t.Fatalf("pool capacity %d, want 5%% of %d block pages = %d", got, blockPages, want)
	}
	before := pool.Stats().Accesses()
	if got, want := ix.DistanceCtx(nil, 0, graph.VertexID(g.NumVertices()-1)), mem.DistanceCtx(nil, 0, graph.VertexID(g.NumVertices()-1)); got != want {
		t.Fatalf("paged distance %v, in-RAM %v", got, want)
	}
	after := pool.Stats().Accesses()
	if after <= before {
		t.Fatal("Distance produced no page accesses")
	}
	// An in-memory index has no pool.
	if mem.Pool() != nil {
		t.Fatal("in-memory index should have a nil pool")
	}
}

// TestSourceTreeKeyedByIndex holds the source tree a query context keeps
// for region bounds to its key. One context asks bounds from the same
// vertex of two paged indexes of different networks, in turn, as the cells
// of a sharded index share one context; every bound must be the in-RAM
// index's. The held tree must also cost the pool what a decode per bound
// would: the same bounds, asked through a fresh context each on a second
// handle of each image, must leave the same pool counters.
func TestSourceTreeKeyedByIndex(t *testing.T) {
	mems := []*Index{buildIndex(t, roadNet(t, 8, 8, 12)), buildIndex(t, roadNet(t, 9, 9, 13))}
	var held, fresh []*Index
	for _, mem := range mems {
		held = append(held, pagedIndex(t, mem, 0.05))
		fresh = append(fresh, pagedIndex(t, mem, 0.05))
	}
	const q = 3
	qc := NewQueryContext()
	for round := 0; round < 3; round++ {
		for level := uint8(1); level <= 3; level++ {
			for i, mem := range mems {
				for code := uint64(0); code < geom.Span(0); code += geom.Span(level) {
					cell := geom.Cell{Code: geom.Code(code), Level: level}
					if got, want := held[i].RegionLowerBoundCtx(qc, q, cell), mem.RegionLowerBoundCtx(nil, q, cell); got != want {
						t.Fatalf("index %d round %d cell %v: bound %v, in-RAM %v", i, round, cell, got, want)
					}
					fresh[i].RegionLowerBoundCtx(NewQueryContext(), q, cell)
				}
			}
		}
	}
	if err := qc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range mems {
		h, f := held[i].Pool().Stats(), fresh[i].Pool().Stats()
		if h.Hits != f.Hits || h.Misses != f.Misses || h.Evictions != f.Evictions || h.Hits+h.Misses == 0 {
			t.Fatalf("index %d: pool counters with the held tree %+v, with a decode per bound %+v", i, h, f)
		}
	}
}

func TestIntervalHelpers(t *testing.T) {
	a := Interval{Lo: 1, Hi: 3}
	b := Interval{Lo: 2.5, Hi: 4}
	if (Interval{Lo: 2, Hi: 2}).Exact() != true {
		t.Fatal("point interval should be exact")
	}
	if a.Exact() {
		t.Fatal("wide interval should not be exact")
	}
	got := a.intersect(b)
	if got.Lo != 2.5 || got.Hi != 3 {
		t.Fatalf("intersect = %+v", got)
	}
	// Disjoint-by-noise intervals clamp to a point rather than inverting.
	clamped := Interval{Lo: 1, Hi: 2}.intersect(Interval{Lo: 2 + 1e-15, Hi: 3})
	if clamped.Lo > clamped.Hi {
		t.Fatalf("inverted interval %+v", clamped)
	}
}

func TestRandomTopologies(t *testing.T) {
	// SILC must stay correct on non-planar random graphs (compression is
	// what degrades, not correctness).
	for seed := int64(0); seed < 3; seed++ {
		g, err := testkit.GenerateRandomConnected(60, 60, 0.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		ix := buildIndex(t, g)
		oracle := testkit.FloydWarshall(g)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 60; trial++ {
			s := graph.VertexID(rng.Intn(g.NumVertices()))
			d := graph.VertexID(rng.Intn(g.NumVertices()))
			want := oracle[s][d]
			if s == d {
				want = 0
			}
			if got := ix.DistanceCtx(nil, s, d); math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d: Distance(%d,%d)=%v want %v", seed, s, d, got, want)
			}
		}
	}
}
