package bench

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
)

func smallEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(16, 16, 7, true)
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

// TestSweepPagesARealStore pins what the figures now stand on: the SILC
// variants' misses are real reads of the paged image, the baselines page
// only the network (counted, nothing to read), and the paper's ordering
// holds in page misses per query — every SILC variant below INE, INE below
// IER.
func TestSweepPagesARealStore(t *testing.T) {
	env, err := NewEnv(32, 32, DefaultSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	pt := sweep(t, env, []SweepSpec{{Label: "k=10", Fraction: 0.07, K: 10}}, 10, Algorithms(), DefaultSeed+3)[0]
	ine, ier := pt.Per["INE"], pt.Per["IER"]
	if ine.IOReads != 0 || ier.IOReads != 0 {
		t.Fatalf("baselines read block pages: INE %v IER %v", ine.IOReads, ier.IOReads)
	}
	if !(ine.IOMisses > 0 && ine.IOMisses < ier.IOMisses) {
		t.Fatalf("misses/query: INE %v should be positive and below IER %v", ine.IOMisses, ier.IOMisses)
	}
	for _, a := range Algorithms()[2:] { // the SILC family, after INE and IER
		agg := pt.Per[a.Name]
		if agg.IOReads <= 0 || agg.IOReads != agg.IOMisses || agg.ReadTime <= 0 {
			t.Fatalf("%s: %v reads, %v misses, read time %v — want every miss a timed real read",
				a.Name, agg.IOReads, agg.IOMisses, agg.ReadTime)
		}
		if agg.IOMisses >= ine.IOMisses {
			t.Fatalf("%s: %v misses/query, not below INE's %v", a.Name, agg.IOMisses, ine.IOMisses)
		}
	}
}

// TestColdStartsAndNetworkPool: every Cold/ColdNetwork hands back an empty
// pool, and the baselines' pool is sized by the network's adjacency pages
// alone — not by the SILC store they never read.
func TestColdStartsAndNetworkPool(t *testing.T) {
	env := smallEnv(t)
	silc, err := env.Cold()
	if err != nil {
		t.Fatal(err)
	}
	core.ExactDistance(silc, core.NewQueryContext(), 0, graph.VertexID(env.G.NumVertices()-1))
	if silc.Tracker().Stats().Misses == 0 {
		t.Fatal("a query on a cold store must miss")
	}
	again, err := env.Cold()
	if err != nil {
		t.Fatal(err)
	}
	if s := again.Tracker().Stats(); s.Accesses() != 0 || again.Tracker().Pool().Len() != 0 {
		t.Fatalf("Cold must start cold: %+v, %d pages resident", s, again.Tracker().Pool().Len())
	}
	net, err := env.ColdNetwork()
	if err != nil {
		t.Fatal(err)
	}
	adjPages := net.Tracker().TotalPages() // no block pages below the adjacency space
	if got, want := net.Tracker().Pool().Capacity(), max(int(float64(adjPages)*0.05), 1); got != want {
		t.Fatalf("network-only pool holds %d pages, want 5%% of %d adjacency pages = %d", got, adjPages, want)
	}
	if adjPages >= again.Tracker().TotalPages() {
		t.Fatalf("network database (%d pages) should be smaller than the SILC one (%d)", adjPages, again.Tracker().TotalPages())
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
