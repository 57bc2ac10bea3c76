package partition

import (
	"math"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
)

// TestRaceOfOneIsCellExact: a race with one zero-offset candidate IS the
// pair's exact within-cell distance — RaceCellRoutes(cx, qc, v, {0}, {u}) and
// CellExact(cx, qc, u, v) agree bit for bit, and the race names candidate 0
// exactly when the distance is finite. That identity is why the wire has no
// exact endpoint. Checked over every ordered pair of every cell, on three
// kinds of pair: reachable; unreachable inside a lenient cell (the splitcell
// fixture's a street from its b street); and beyond the radius of a
// proximity-bounded index, whose zero-refinement interval [radius, +Inf) is
// finite below, so the race gets as far as refining it.
func TestRaceOfOneIsCellExact(t *testing.T) {
	reachable, unreachable, beyond := 0, 0, 0
	check := func(name string, cx CellIndex, nv int, count *int) {
		t.Helper()
		qc := core.NewQueryContext()
		for u := 0; u < nv; u++ {
			for v := 0; v < nv; v++ {
				u, v := graph.VertexID(u), graph.VertexID(v)
				want := CellExact(cx, qc, u, v)
				got, arg := RaceCellRoutes(cx, qc, v, []float64{0}, []graph.VertexID{u})
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s (%d,%d): race of one %v (%x), CellExact %v (%x)", name, u, v,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
				wantArg := 0
				if math.IsInf(want, 1) {
					wantArg = -1
					*count++
				} else {
					reachable++
				}
				if arg != wantArg {
					t.Fatalf("%s (%d,%d): distance %v, winner %d", name, u, v, want, arg)
				}
			}
		}
	}
	nets := testNetworks(t)
	nets["splitcell"] = splitCellNetwork(t)
	for name, g := range nets {
		s, err := Build(g, Options{Partitions: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for c := range s.cells {
			check(name, s.qcell(int32(c)), s.CellVertexCount(c), &unreachable)
		}
	}
	g := nets["road14x14b"]
	ix, err := core.Build(g, core.BuildOptions{ProximityRadius: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	check("proximity-bounded", &localCell{Index: ix}, g.NumVertices(), &beyond)
	if reachable == 0 || unreachable == 0 || beyond == 0 {
		t.Fatalf("pairs: %d reachable, %d unreachable in a lenient cell, %d beyond the radius; need all three kinds",
			reachable, unreachable, beyond)
	}
}
