package bench

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"silc/internal/core"
	"silc/internal/graph"
)

func smallEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(16, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := env.Close(); err != nil {
			t.Error(err)
		}
	})
	return env
}

func sweep(t *testing.T, env *Env, specs []SweepSpec, queriesPer int, algos []Algorithm, seed int64) []SweepPoint {
	t.Helper()
	points, err := env.Sweep(specs, queriesPer, algos, seed)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func TestObjectSetSizes(t *testing.T) {
	env := smallEnv(t)
	rng := rand.New(rand.NewSource(1))
	n := env.G.NumVertices()
	for _, f := range []float64{0.001, 0.05, 0.5, 1.0, 2.0} {
		objs := env.ObjectSet(f, rng)
		want := int(math.Round(f * float64(n)))
		if want < 1 {
			want = 1
		}
		if want > n {
			want = n
		}
		if objs.Len() != want {
			t.Fatalf("fraction %v: got %d objects want %d", f, objs.Len(), want)
		}
	}
}

func TestSweepProducesAllAlgorithms(t *testing.T) {
	env := smallEnv(t)
	specs := []SweepSpec{{Label: "test", Fraction: 0.1, K: 3}}
	points := sweep(t, env, specs, 3, Algorithms(), 42)
	if len(points) != 1 {
		t.Fatalf("points = %d", len(points))
	}
	pt := points[0]
	for _, name := range []string{"INE", "IER", "INN", "KNN", "KNN-I", "KNN-M"} {
		agg := pt.Per[name]
		if agg == nil {
			t.Fatalf("missing algorithm %s", name)
		}
		if agg.Queries != 3 {
			t.Fatalf("%s: queries = %d", name, agg.Queries)
		}
		if agg.CPUTime <= 0 {
			t.Fatalf("%s: no time recorded", name)
		}
	}
}

// TestSweepPagesARealStore pins what the figures stand on: the SILC
// variants' misses are real, timed reads of the paged image, and the
// graph-expansion baselines, which run on the resident network, charge no
// page at all.
func TestSweepPagesARealStore(t *testing.T) {
	env, err := NewEnv(32, 32, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	pt := sweep(t, env, []SweepSpec{{Label: "k=10", Fraction: 0.07, K: 10}}, 10, Algorithms(), DefaultSeed+3)[0]
	for _, name := range []string{"INE", "IER"} {
		if a := pt.Per[name]; a.IOAccesses != 0 || a.IOReads != 0 || a.ReadTime != 0 {
			t.Fatalf("%s charged pages: %v accesses, %v reads, read time %v", name, a.IOAccesses, a.IOReads, a.ReadTime)
		}
	}
	for _, a := range Algorithms()[2:] { // the SILC family, after INE and IER
		agg := pt.Per[a.Name]
		if agg.IOReads <= 0 || agg.IOReads != agg.IOMisses || agg.ReadTime <= 0 {
			t.Fatalf("%s: %v reads, %v misses, read time %v — want every miss a timed real read",
				a.Name, agg.IOReads, agg.IOMisses, agg.ReadTime)
		}
	}
}

// TestColdStartsAndNetworkPool: every Cold hands back an empty pool, and the
// network-expansion baselines run on that pool without touching it.
func TestColdStartsAndNetworkPool(t *testing.T) {
	env := smallEnv(t)
	silc, err := env.Cold()
	if err != nil {
		t.Fatal(err)
	}
	core.ExactDistance(silc, core.NewQueryContext(), 0, graph.VertexID(env.G.NumVertices()-1))
	if silc.Pool().Stats().Misses == 0 {
		t.Fatal("a query on a cold store must miss")
	}
	again, err := env.Cold()
	if err != nil {
		t.Fatal(err)
	}
	if s := again.Pool().Stats(); s.Accesses() != 0 || again.Pool().Len() != 0 {
		t.Fatalf("Cold must start cold: %+v, %d pages resident", s, again.Pool().Len())
	}
	objs := env.ObjectSet(0.1, rand.New(rand.NewSource(3)))
	for _, a := range Algorithms()[:2] { // INE and IER
		if res := a.Run(again, objs, 5, 4); res.Err != nil || len(res.Neighbors) != 4 {
			t.Fatalf("%s: %d neighbours, error %v", a.Name, len(res.Neighbors), res.Err)
		}
	}
	if s := again.Pool().Stats(); s.Accesses() != 0 || again.Pool().Len() != 0 {
		t.Fatalf("the baselines touched the pool: %+v, %d pages resident", s, again.Pool().Len())
	}
}

func TestSweepDeterministicWorkload(t *testing.T) {
	env := smallEnv(t)
	specs := []SweepSpec{{Label: "d", Fraction: 0.1, K: 4}}
	silc := Algorithms()[2:] // the SILC family, after INE and IER
	a := sweep(t, env, specs, 4, silc, 11)
	b := sweep(t, env, specs, 4, silc, 11)
	// Counting stats — the cold store's page traffic included — must be
	// identical for identical seeds (times differ).
	for name, agg := range a[0].Per {
		other := b[0].Per[name]
		if agg.Refinements != other.Refinements || agg.MaxQueue != other.MaxQueue ||
			agg.IOMisses != other.IOMisses || agg.IOReads != other.IOReads {
			t.Fatalf("%s: sweep not deterministic: %+v vs %+v", name, agg, other)
		}
	}
}

func TestFitLogLogSlope(t *testing.T) {
	// y = 3 x^1.5 exactly.
	xs := []float64{100, 400, 1600, 6400}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	if got := FitLogLogSlope(xs, ys); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("slope = %v", got)
	}
}

func TestFitLogLogSlopePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FitLogLogSlope([]float64{1}, []float64{1})
}

func TestStorageGrowthSlopeNearPaper(t *testing.T) {
	rows, slope, err := StorageGrowth([]int{12, 20, 32, 48}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Blocks <= rows[i-1].Blocks {
			t.Fatal("block counts not increasing")
		}
	}
	// The paper reports slope 1.5; accept the same regime.
	if slope < 1.2 || slope > 1.8 {
		t.Fatalf("slope %.3f outside the paper's regime [1.2, 1.8]", slope)
	}
}

func TestDijkstraVsSILCShape(t *testing.T) {
	env := smallEnv(t)
	rows, sum := env.DijkstraVsSILC(20, 3)
	if len(rows) != 20 || sum.Queries != 20 {
		t.Fatal("row count mismatch")
	}
	// Dijkstra must settle far more vertices than the path length; SILC
	// touches exactly the path.
	if sum.MeanDijkstra <= sum.MeanSILC {
		t.Fatalf("Dijkstra %.0f should dwarf SILC %.0f", sum.MeanDijkstra, sum.MeanSILC)
	}
	if sum.MeanAStar > sum.MeanDijkstra {
		t.Fatalf("A* %.0f settled more than Dijkstra %.0f", sum.MeanAStar, sum.MeanDijkstra)
	}
	for _, r := range rows {
		if r.SILCSteps != r.PathHops {
			t.Fatalf("SILC steps %d != path hops %d", r.SILCSteps, r.PathHops)
		}
	}
}

func TestStorageModelsTable(t *testing.T) {
	rows, err := StorageModels(12, 12, 9, 0.25, 50)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ModelRow{}
	for _, r := range rows {
		byName[r.Model] = r
	}
	exp, ok1 := byName["Explicit paths"]
	nh, ok2 := byName["Next-hop matrix"]
	silc, ok3 := byName["SILC"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing models: %v", rows)
	}
	// The storage hierarchy of the paper's table: explicit > next-hop > SILC
	// at this size regime.
	if !(exp.Bytes > nh.Bytes) {
		t.Fatalf("explicit %d not above next-hop %d", exp.Bytes, nh.Bytes)
	}
	if !(nh.Bytes > silc.Bytes) {
		t.Fatalf("next-hop %d not above SILC %d", nh.Bytes, silc.Bytes)
	}
	// The ε row is SILC's refiner stopped early: SILC's bytes, no build or
	// path query of its own.
	approx, ok := byName["SILC, ε = 0.25"]
	if !ok {
		t.Fatalf("missing the ε row: %v", rows)
	}
	if approx.Bytes != silc.Bytes || approx.BuildTime != 0 || approx.PathQuery != 0 {
		t.Fatalf("ε row %+v, SILC %+v", approx, silc)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	env := smallEnv(t)
	points := sweep(t, env, []SweepSpec{{Label: "|S|=0.1N", Fraction: 0.1, K: 3}}, 2, Algorithms(), 13)
	var buf bytes.Buffer
	RenderF3(&buf, "vary |S|", points)
	RenderF4(&buf, "vary |S|", points)
	RenderF5(&buf, "vary |S|", points)
	RenderF6(&buf, "vary |S|", points)
	RenderF7(&buf, "vary |S|", points)
	RenderF8(&buf, "vary |S|", points)

	srows, slope, err := StorageGrowth([]int{8, 12}, 3)
	if err != nil {
		t.Fatal(err)
	}
	RenderStorageGrowth(&buf, srows, slope)
	vrows, vsum := env.DijkstraVsSILC(5, 1)
	RenderVisitSummary(&buf, vsum, vrows)
	mrows, err := StorageModels(8, 8, 2, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	RenderModels(&buf, mrows)

	out := buf.String()
	for _, want := range []string{"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "T1", "page misses", "read time", "KNN-M", "INE", "slope"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
}

// TestSweepRendersDegeneratePointsAsNA renders F3–F8 over a synthetic sweep
// whose first point has fewer objects than k — the -quick map's |S| =
// 0.001N at k = 10 — and whose second is computable: every cell of the
// first point's rows reads n/a, none of the second's does (but for a
// baseline's I/O cells in F3), and one note line names the first point.
func TestSweepRendersDegeneratePointsAsNA(t *testing.T) {
	agg := func() *Agg {
		return &Agg{CPUTime: 50 * time.Microsecond, MaxQueue: 40, Refinements: 30, KMinAccepts: 2, D0kOverDk: 1.2, KMinDistOverDk: 0.9,
			IOMisses: 7, IOReads: 7, ReadTime: 9 * time.Microsecond, LOps: 12}
	}
	per := func() map[string]*Agg {
		return map[string]*Agg{"INE": agg(), "INN": agg(), "KNN-I": agg(), "KNN": agg(), "KNN-M": agg()}
	}
	points := []SweepPoint{
		{Spec: SweepSpec{Label: "|S|=0.001N", Fraction: 0.001, K: 10}, Objects: 1, Per: per()},
		{Spec: SweepSpec{Label: "|S|=0.05N", Fraction: 0.05, K: 10}, Objects: 51, Per: per()},
	}
	for name, render := range map[string]func(io.Writer, string, []SweepPoint){
		"F3": RenderF3, "F4": RenderF4, "F5": RenderF5, "F6": RenderF6, "F7": RenderF7, "F8": RenderF8,
	} {
		var buf bytes.Buffer
		render(&buf, "vary |S|", points)
		// F3 and F8 print one row per algorithm, after the point's label.
		skip := 1
		if name == "F3" || name == "F8" {
			skip = 2
		}
		var short, full, notes []string
		for _, line := range strings.Split(buf.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "|S|=0.001N"):
				short = append(short, line)
			case strings.HasPrefix(line, "|S|="):
				full = append(full, line)
			case strings.HasPrefix(line, "n/a:"):
				notes = append(notes, line)
			}
		}
		if len(short) == 0 || len(short) != len(full) {
			t.Fatalf("%s: %d degenerate and %d computable rows:\n%s", name, len(short), len(full), buf.String())
		}
		for _, row := range short {
			cells := strings.Fields(row)[skip:]
			if len(cells) == 0 || strings.Count(row, "n/a") != len(cells) {
				t.Errorf("%s: degenerate row %q: want every cell n/a", name, row)
			}
		}
		for _, row := range full {
			want := 0
			if strings.Fields(row)[1] == "INE" {
				want = 4 // page misses, page reads, read time, paper-scale time
			}
			if strings.Count(row, "n/a") != want || slices.Contains(strings.Fields(row)[skip:], "-") {
				t.Errorf("%s: computable row %q: want %d n/a cells and a value in every other", name, row, want)
			}
		}
		if len(notes) != 1 || !strings.Contains(notes[0], "|S|=0.001N (1 objects, k=10)") || strings.Contains(notes[0], "0.05N") {
			t.Errorf("%s: notes %q: want one naming only |S|=0.001N", name, notes)
		}
	}
}

func TestSortedAlgorithmNames(t *testing.T) {
	per := map[string]*Agg{
		"KNN": {}, "INE": {}, "ZZZ": {}, "IER": {}, "KNN-M": {}, "INN": {}, "KNN-I": {},
	}
	got := SortedAlgorithmNames(per)
	want := []string{"INE", "IER", "INN", "KNN-I", "KNN", "KNN-M", "ZZZ"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
}
