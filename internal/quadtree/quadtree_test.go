package quadtree

import (
	"math"
	"math/rand"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/sssp"
	"silc/internal/testkit"
)

// fixture builds the quadtree inputs for one source vertex of a network:
// Morton-sorted codes, first-hop colors, and distance ratios.
type fixture struct {
	g      *graph.Network
	codes  []geom.Code
	colors []int32
	ratios []float64
	tree   *sssp.Tree
	source graph.VertexID
}

func makeFixture(t *testing.T, g *graph.Network, source graph.VertexID) *fixture {
	t.Helper()
	order := g.MortonOrder()
	codes := make([]geom.Code, len(order))
	for i, v := range order {
		codes[i] = g.Code(v)
	}
	tree := sssp.Dijkstra(g, source)
	colors := make([]int32, len(order))
	ratios := make([]float64, len(order))
	for i, v := range order {
		if v == source {
			colors[i] = NoColor
			continue
		}
		if math.IsInf(tree.Dist[v], 1) {
			t.Fatalf("fixture network disconnected at %d", v)
		}
		hop := tree.FirstHop[v]
		colors[i] = int32(testkit.NeighborIndex(g, source, hop))
		ratios[i] = tree.Dist[v] / g.Euclid(source, v)
	}
	return &fixture{g: g, codes: codes, colors: colors, ratios: ratios, tree: tree, source: source}
}

func testNetwork(t *testing.T, seed int64) *graph.Network {
	t.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 10, Cols: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// find returns the block containing code; ok is false when no block does.
func find(t *Tree, code geom.Code) (Block, bool) {
	i, ok := t.FindIndex(code)
	if !ok {
		return Block{}, false
	}
	return t.Blocks[i], true
}

func TestBlocksDisjointSortedAndCovering(t *testing.T) {
	g := testNetwork(t, 1)
	for _, source := range []graph.VertexID{0, graph.VertexID(g.NumVertices() / 2)} {
		fx := makeFixture(t, g, source)
		qt := NewBuilder(fx.codes).Build(fx.colors, fx.ratios)

		// Sorted and disjoint.
		for i := 1; i < len(qt.Blocks); i++ {
			prev, cur := qt.Blocks[i-1], qt.Blocks[i]
			if prev.Cell.End() > cur.Cell.Code {
				t.Fatalf("blocks %d,%d overlap: %v then %v", i-1, i, prev.Cell, cur.Cell)
			}
		}
		// Every non-source vertex is covered by exactly one block with the
		// right color, and its ratio lies inside the block's lambda range.
		for i, code := range fx.codes {
			if fx.colors[i] == NoColor {
				continue
			}
			b, ok := find(qt, code)
			if !ok {
				t.Fatalf("vertex at code %x not covered", uint64(code))
			}
			if b.Color != fx.colors[i] {
				t.Fatalf("vertex at code %x: block color %d want %d", uint64(code), b.Color, fx.colors[i])
			}
			if float64(b.LamLo) > fx.ratios[i] || float64(b.LamHi) < fx.ratios[i] {
				t.Fatalf("ratio %v outside [%v,%v]", fx.ratios[i], b.LamLo, b.LamHi)
			}
		}
		if qt.MinLambda < 1 {
			t.Fatalf("MinLambda %v < 1 on a weight>=euclid network", qt.MinLambda)
		}
	}
}

func TestFindMissesUncoveredSpace(t *testing.T) {
	g := testNetwork(t, 2)
	fx := makeFixture(t, g, 0)
	qt := NewBuilder(fx.codes).Build(fx.colors, fx.ratios)
	// A code beyond the last block's end is uncovered.
	last := qt.Blocks[len(qt.Blocks)-1]
	if _, ok := find(qt, last.Cell.End()); ok {
		// Only fails if another block starts exactly there, which the sorted
		// disjointness test above already rules out past the last block.
		t.Fatal("Find succeeded past the final block")
	}
	if _, ok := find(qt, 0); ok {
		if b, _ := find(qt, 0); b.Cell.Code != 0 {
			t.Fatal("Find(0) returned a non-covering block")
		}
	}
}

func TestBuildFewerBlocksThanVertices(t *testing.T) {
	// Path coherence must compress: the block count should be well below the
	// vertex count for a lattice-like network (O(sqrt n) vs n).
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 24, Cols: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fx := makeFixture(t, g, graph.VertexID(g.NumVertices()/2))
	qt := NewBuilder(fx.codes).Build(fx.colors, fx.ratios)
	n := g.NumVertices()
	if qt.NumBlocks() >= n {
		t.Fatalf("no compression: %d blocks for %d vertices", qt.NumBlocks(), n)
	}
}

func TestSingleVertexSource(t *testing.T) {
	// A two-vertex network: the tree for each source has exactly one block.
	b := graph.NewBuilder()
	u := b.AddVertex(geom.Point{X: 0.25, Y: 0.5})
	v := b.AddVertex(geom.Point{X: 0.75, Y: 0.5})
	b.AddBiEdge(u, v, 0.6)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fx := makeFixture(t, g, u)
	qt := NewBuilder(fx.codes).Build(fx.colors, fx.ratios)
	if qt.NumBlocks() != 1 {
		t.Fatalf("blocks = %d want 1", qt.NumBlocks())
	}
	blk := qt.Blocks[0]
	if blk.Color != 0 {
		t.Fatalf("color = %d want 0", blk.Color)
	}
	ratio := 0.6 / 0.5
	if float64(blk.LamLo) > ratio || float64(blk.LamHi) < ratio {
		t.Fatalf("ratio %v outside [%v,%v]", ratio, blk.LamLo, blk.LamHi)
	}
}

// scanCellBound is CellLowerBound's linear-scan oracle: a block covering the
// cell bounds it by its LamLo times the distance to the cell; otherwise the
// bound is the minimum over the blocks inside the cell of LamLo times the
// distance to the block.
func scanCellBound(t *Tree, q geom.Point, cell geom.Cell) float64 {
	best := math.Inf(1)
	for _, b := range t.Blocks {
		switch {
		case b.Cell.Level <= cell.Level && b.Cell.ContainsCode(cell.Code):
			return float64(b.LamLo) * cell.Rect().MinDist(q)
		case b.Cell.Level >= cell.Level && cell.ContainsCode(b.Cell.Code):
			if d := float64(b.LamLo) * b.Cell.Rect().MinDist(q); d < best {
				best = d
			}
		}
	}
	return best
}

// cellAt returns the level-l cell holding code.
func cellAt(code geom.Code, l uint8) geom.Cell {
	span := geom.Code(geom.Span(l))
	return geom.Cell{Code: code / span * span, Level: l}
}

// oneWayLattice is an n×n lattice whose two directions of every street cost
// different amounts, plus one-way diagonals: distances are not symmetric.
func oneWayLattice(t *testing.T, n int) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	at := func(r, c int) graph.VertexID { return graph.VertexID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b.AddVertex(geom.Point{X: (float64(c) + 0.5) / float64(n), Y: (float64(r) + 0.5) / float64(n)})
		}
	}
	w := 1 / float64(n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				b.AddEdge(at(r, c), at(r, c+1), w)
				b.AddEdge(at(r, c+1), at(r, c), 1.7*w)
			}
			if r+1 < n {
				b.AddEdge(at(r, c), at(r+1, c), 1.3*w)
				b.AddEdge(at(r+1, c), at(r, c), w)
			}
			if r+1 < n && c+1 < n && (r+c)%3 == 0 {
				b.AddEdge(at(r+1, c+1), at(r, c), 1.5*w)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// boundMaps are the shapes the cell-bound tests run on: a road map, a
// regular grid (vertices on cell-aligned coordinates), a ring-radial map
// (dense centre, sparse rim) and a one-way lattice.
func boundMaps(t *testing.T) map[string]*graph.Network {
	t.Helper()
	grid, err := graph.GenerateGrid(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := graph.GenerateRingRadial(5, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Network{"road": testNetwork(t, 4), "grid": grid, "ring": ring, "oneway": oneWayLattice(t, 8)}
}

// TestRegionLowerBoundIsValid: on every map, for sampled sources and every
// level 0..16 of the cells around sampled vertices and random codes,
// CellLowerBound is bit for bit the linear-scan oracle and never exceeds
// Dijkstra's distance to any vertex of the cell. Every kind of cell occurs:
// one holding no block, one inside a single block, one equal to a block, one
// the descent splits, and one holding the source.
func TestRegionLowerBoundIsValid(t *testing.T) {
	kinds := map[string]int{}
	for name, g := range boundMaps(t) {
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(int64(n)))
		for _, source := range []graph.VertexID{0, graph.VertexID(n / 3), graph.VertexID(n - 1)} {
			fx := makeFixture(t, g, source)
			qt := NewBuilder(fx.codes).Build(fx.colors, fx.ratios)
			q := g.Point(source)
			var codes []geom.Code
			for i := 0; i < 12; i++ {
				codes = append(codes, g.Code(graph.VertexID(rng.Intn(n))), geom.Code(rng.Uint64()%geom.Span(0)))
			}
			codes = append(codes, g.Code(source))
			for _, code := range codes {
				for l := uint8(0); l <= geom.MaxLevel; l++ {
					cell := cellAt(code, l)
					got, want := qt.CellLowerBound(q, cell), scanCellBound(qt, q, cell)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s source %d cell %v: bound %v, scan %v", name, source, cell, got, want)
					}
					nearest := math.Inf(1)
					for v := 0; v < n; v++ {
						if graph.VertexID(v) != source && cell.ContainsCode(g.Code(graph.VertexID(v))) {
							nearest = math.Min(nearest, fx.tree.Dist[v])
						}
					}
					if got > nearest {
						t.Fatalf("%s source %d cell %v: bound %v exceeds the nearest vertex at %v", name, source, cell, got, nearest)
					}
					kinds[cellKind(qt, cell, g.Code(source))]++
				}
			}
		}
	}
	for _, k := range []string{"empty", "inside", "equal", "split", "source"} {
		if kinds[k] == 0 {
			t.Errorf("no %s cell was checked (%v)", k, kinds)
		}
	}
}

// cellKind names which path of CellLowerBound a cell takes.
func cellKind(qt *Tree, cell geom.Cell, source geom.Code) string {
	inside := 0
	for _, b := range qt.Blocks {
		switch {
		case b.Cell == cell:
			return "equal"
		case b.Cell.Level < cell.Level && b.Cell.ContainsCode(cell.Code):
			return "inside"
		case cell.ContainsCode(b.Cell.Code):
			inside++
		}
	}
	switch {
	case cell.ContainsCode(source):
		return "source"
	case inside == 0:
		return "empty"
	}
	return "split"
}

// TestRegionLowerBoundEmptyCell: a cell no block reaches bounds nothing.
func TestRegionLowerBoundEmptyCell(t *testing.T) {
	g := testNetwork(t, 5)
	fx := makeFixture(t, g, 0)
	qt := NewBuilder(fx.codes).Build(fx.colors, fx.ratios)
	for code := geom.Code(0); ; code++ {
		if _, ok := find(qt, code); !ok {
			if got := qt.CellLowerBound(g.Point(0), geom.Cell{Code: code, Level: geom.MaxLevel}); !math.IsInf(got, 1) {
				t.Fatalf("uncovered grid cell %x bounds %v", uint64(code), got)
			}
			return
		}
	}
}

func TestBuilderPanicsOnUnsortedCodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder([]geom.Code{5, 3})
}

func TestBuildPanicsOnLengthMismatch(t *testing.T) {
	b := NewBuilder([]geom.Code{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Build([]int32{0, 0}, []float64{1, 1})
}

func TestLambdaBoundsOutwardRounding(t *testing.T) {
	// A ratio that is not exactly representable in float32 must still fall
	// strictly inside [LamLo, LamHi] after the float32 round trip.
	codes := []geom.Code{geom.Encode(10, 10), geom.Encode(50000, 50000)}
	b := NewBuilder(codes)
	ratio := 1.0000000123456789
	tree := b.Build([]int32{NoColor, 0}, []float64{0, ratio})
	if len(tree.Blocks) != 1 {
		t.Fatalf("blocks = %d", len(tree.Blocks))
	}
	blk := tree.Blocks[0]
	if !(float64(blk.LamLo) < ratio && ratio < float64(blk.LamHi)) {
		t.Fatalf("ratio %v not strictly inside [%v,%v]", ratio, blk.LamLo, blk.LamHi)
	}
}

// TestNextULPMatchesNextafter32 sweeps the float32 classes the ratio
// bounds could meet — normals, subnormals, the extremes, zeros, negatives,
// infinities and NaN — plus float64 inputs between and beyond them, and
// requires the bit-stepping nextDown32/nextUp32 to return exactly what
// math.Nextafter32 returns.
func TestNextULPMatchesNextafter32(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 1.5, -1.5, 1.0 / 3, 2.0 / 3, 1e-40, -1e-40,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.SmallestNonzeroFloat32 / 3, 0x1p-126, 0x1p-126 - 0x1p-149,
		math.MaxFloat32, -math.MaxFloat32, math.MaxFloat32 * (1 + 0x1p-25), math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		vals = append(vals,
			float64(math.Float32frombits(rng.Uint32())), // every float32 class
			math.Float64frombits(rng.Uint64()),          // every float64 class
			1+3*rng.Float64(),                           // the ratios of a road map
		)
	}
	same := func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
	}
	for _, v := range vals {
		if got, want := nextDown32(v), math.Nextafter32(float32(v), float32(math.Inf(-1))); !same(got, want) {
			t.Fatalf("nextDown32(%g) = %g (%#x), Nextafter32 %g (%#x)", v, got, math.Float32bits(got), want, math.Float32bits(want))
		}
		if got, want := nextUp32(v), math.Nextafter32(float32(v), float32(math.Inf(1))); !same(got, want) {
			t.Fatalf("nextUp32(%g) = %g (%#x), Nextafter32 %g (%#x)", v, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}

func TestSourceOnlyTree(t *testing.T) {
	codes := []geom.Code{geom.Encode(100, 100)}
	tree := NewBuilder(codes).Build([]int32{NoColor}, []float64{0})
	if tree.NumBlocks() != 0 {
		t.Fatalf("blocks = %d want 0", tree.NumBlocks())
	}
	if _, ok := find(tree, codes[0]); ok {
		t.Fatal("Find on empty tree succeeded")
	}
	if got := tree.CellLowerBound(geom.Point{X: 0.5, Y: 0.5}, geom.RootCell()); !math.IsInf(got, 1) {
		t.Fatalf("CellLowerBound on empty tree = %v", got)
	}
}

func TestRegionLowerBoundTightOnLeafBlocks(t *testing.T) {
	// For the grid cell of one vertex the bound is LamLo times the distance
	// to that cell, at most LamLo * euclid(q, vertex) — so bound <= true
	// distance but also reasonably tight (within LamHi/LamLo of it).
	g := testNetwork(t, 6)
	source := graph.VertexID(2)
	fx := makeFixture(t, g, source)
	qt := NewBuilder(fx.codes).Build(fx.colors, fx.ratios)
	q := g.Point(source)
	for v := 0; v < g.NumVertices(); v += 7 {
		vv := graph.VertexID(v)
		if vv == source {
			continue
		}
		bound := qt.CellLowerBound(q, geom.Cell{Code: g.Code(vv), Level: geom.MaxLevel})
		d := fx.tree.Dist[v]
		if bound > d {
			t.Fatalf("bound %v exceeds true %v", bound, d)
		}
		if bound < d/10 {
			t.Fatalf("bound %v unreasonably loose vs true %v", bound, d)
		}
	}
}

// BenchmarkCellLowerBound times one region lower bound from a central source
// of a 64×64 road map to the cells an object index's nodes occupy: levels 2
// to 9 around random vertices.
func BenchmarkCellLowerBound(b *testing.B) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 2008})
	if err != nil {
		b.Fatal(err)
	}
	order := g.MortonOrder()
	codes := make([]geom.Code, len(order))
	for i, v := range order {
		codes[i] = g.Code(v)
	}
	source := graph.VertexID(g.NumVertices() / 2)
	tree := sssp.Dijkstra(g, source)
	colors := make([]int32, len(order))
	ratios := make([]float64, len(order))
	for i, v := range order {
		if v == source {
			colors[i] = NoColor
			continue
		}
		colors[i] = int32(testkit.NeighborIndex(g, source, tree.FirstHop[v]))
		ratios[i] = tree.Dist[v] / g.Euclid(source, v)
	}
	qt := NewBuilder(codes).Build(colors, ratios)
	rng := rand.New(rand.NewSource(1))
	cells := make([]geom.Cell, 1024)
	for i := range cells {
		cells[i] = cellAt(g.Code(graph.VertexID(rng.Intn(g.NumVertices()))), uint8(2+rng.Intn(8)))
	}
	q := g.Point(source)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		sinkBound = qt.CellLowerBound(q, cells[i%len(cells)])
	}
}

var sinkBound float64
