package knn

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/sssp"
	"silc/internal/store"
	"silc/internal/testkit"
)

// harness bundles a network, its SILC index, and ground-truth machinery.
type harness struct {
	g  *graph.Network
	ix *core.Index
}

func newHarness(t testing.TB, g *graph.Network) *harness {
	t.Helper()
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{g: g, ix: ix}
}

func roadHarness(t testing.TB, rows, cols int, seed int64) *harness {
	t.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return newHarness(t, g)
}

// randomObjects picks m distinct vertices as the object set.
func (h *harness) randomObjects(m int, rng *rand.Rand) *Objects {
	perm := rng.Perm(h.g.NumVertices())
	if m > len(perm) {
		m = len(perm)
	}
	vs := make([]graph.VertexID, m)
	for i := 0; i < m; i++ {
		vs[i] = graph.VertexID(perm[i])
	}
	return NewObjects(h.g, vs)
}

// truth returns the true ascending top-k object distances from q, and the
// exact distance of each object by id.
func (h *harness) truth(objs *Objects, q graph.VertexID, k int) (topK []float64, byID map[int32]float64) {
	tree := sssp.Dijkstra(h.g, q)
	byID = make(map[int32]float64, objs.Len())
	all := make([]float64, 0, objs.Len())
	for id := int32(0); id < int32(objs.Len()); id++ {
		d := tree.Dist[objs.ByID(id).Vertex]
		byID[id] = d
		all = append(all, d)
	}
	sort.Float64s(all)
	if k < len(all) {
		all = all[:k]
	}
	return all, byID
}

type algorithm struct {
	name   string
	sorted bool
	run    func(*harness, *Objects, graph.VertexID, int) Result
}

func allAlgorithms() []algorithm {
	algos := []algorithm{
		{"INE", true, func(h *harness, o *Objects, q graph.VertexID, k int) Result {
			return INESpec(h.ix, nil, o, q, UnboundedSpec(k, VariantKNN))
		}},
		{"IER", true, func(h *harness, o *Objects, q graph.VertexID, k int) Result {
			return IERSpec(h.ix, nil, o, q, UnboundedSpec(k, VariantKNN))
		}},
	}
	for _, v := range Variants {
		v := v
		algos = append(algos, algorithm{
			name:   v.String(),
			sorted: v != VariantKNNM,
			run: func(h *harness, o *Objects, q graph.VertexID, k int) Result {
				return SearchSpec(h.ix, nil, o, q, UnboundedSpec(k, v))
			},
		})
	}
	return algos
}

const distTol = 1e-9

// checkResult validates a result against ground truth.
func checkResult(t *testing.T, h *harness, algo algorithm, res Result, objs *Objects,
	q graph.VertexID, k int, topK []float64, byID map[int32]float64) {
	t.Helper()
	wantLen := k
	if objs.Len() < k {
		wantLen = objs.Len()
	}
	if len(res.Neighbors) != wantLen {
		t.Fatalf("%s: returned %d neighbors, want %d", algo.name, len(res.Neighbors), wantLen)
	}
	// No duplicates; every reported interval contains the true distance.
	seen := make(map[int32]bool, len(res.Neighbors))
	trueDists := make([]float64, len(res.Neighbors))
	for i, nb := range res.Neighbors {
		if seen[nb.Object.ID] {
			t.Fatalf("%s: duplicate object %d", algo.name, nb.Object.ID)
		}
		seen[nb.Object.ID] = true
		d := byID[nb.Object.ID]
		trueDists[i] = d
		if nb.Interval.Lo > d+distTol || nb.Interval.Hi < d-distTol {
			t.Fatalf("%s: interval [%v,%v] misses true %v", algo.name, nb.Interval.Lo, nb.Interval.Hi, d)
		}
		if nb.Exact && math.Abs(nb.Dist-d) > distTol {
			t.Fatalf("%s: exact dist %v != true %v", algo.name, nb.Dist, d)
		}
	}
	// The multiset of true distances matches the true top-k.
	sorted := append([]float64(nil), trueDists...)
	sort.Float64s(sorted)
	for i := range sorted {
		if math.Abs(sorted[i]-topK[i]) > distTol {
			t.Fatalf("%s: rank %d true dist %v, brute force %v (q=%d k=%d)",
				algo.name, i, sorted[i], topK[i], q, k)
		}
	}
	// Sorted algorithms must emit in true ascending order.
	if algo.sorted != res.Sorted {
		t.Fatalf("%s: Sorted flag %v want %v", algo.name, res.Sorted, algo.sorted)
	}
	if res.Sorted {
		for i := 1; i < len(trueDists); i++ {
			if trueDists[i] < trueDists[i-1]-distTol {
				t.Fatalf("%s: order violated at %d: %v after %v", algo.name, i, trueDists[i], trueDists[i-1])
			}
		}
	}
}

func TestAllAlgorithmsMatchBruteForce(t *testing.T) {
	algos := allAlgorithms()
	configs := []struct {
		rows, cols int
		seed       int64
	}{
		{8, 8, 1},
		{10, 10, 2},
		{6, 12, 3},
	}
	for _, cfg := range configs {
		h := roadHarness(t, cfg.rows, cfg.cols, cfg.seed)
		rng := rand.New(rand.NewSource(cfg.seed * 97))
		for trial := 0; trial < 12; trial++ {
			m := rng.Intn(h.g.NumVertices()-1) + 1
			objs := h.randomObjects(m, rng)
			q := graph.VertexID(rng.Intn(h.g.NumVertices()))
			k := []int{1, 3, 10, m, m + 5}[rng.Intn(5)]
			topK, byID := h.truth(objs, q, k)
			for _, algo := range algos {
				res := algo.run(h, objs, q, k)
				checkResult(t, h, algo, res, objs, q, k, topK, byID)
			}
		}
	}
}

func TestAlgorithmsOnRandomTopology(t *testing.T) {
	// kNN-M is excluded from the exact check here: its KMINDIST shortcut is
	// the paper's heuristic and is only exact on path-coherent networks
	// (see TestKNNMBoundedErrorOnAdversarialTopology for its guarantee).
	algos := allAlgorithms()
	for seed := int64(0); seed < 3; seed++ {
		g, err := testkit.GenerateRandomConnected(70, 60, 0.4, seed)
		if err != nil {
			t.Fatal(err)
		}
		h := newHarness(t, g)
		rng := rand.New(rand.NewSource(seed + 500))
		for trial := 0; trial < 8; trial++ {
			objs := h.randomObjects(rng.Intn(40)+2, rng)
			q := graph.VertexID(rng.Intn(g.NumVertices()))
			k := rng.Intn(8) + 1
			topK, byID := h.truth(objs, q, k)
			for _, algo := range algos {
				if algo.name == VariantKNNM.String() {
					continue
				}
				res := algo.run(h, objs, q, k)
				checkResult(t, h, algo, res, objs, q, k, topK, byID)
			}
		}
	}
}

func TestKNNMBoundedErrorOnAdversarialTopology(t *testing.T) {
	// On arbitrary topologies kNN-M still guarantees: exactly min(k,|S|)
	// distinct objects, every reported interval containing its true
	// distance, and every returned object's true distance at most D⁰k (the
	// first-k upper-bound estimate, itself >= the true kth distance).
	for seed := int64(0); seed < 4; seed++ {
		g, err := testkit.GenerateRandomConnected(70, 60, 0.4, seed)
		if err != nil {
			t.Fatal(err)
		}
		h := newHarness(t, g)
		rng := rand.New(rand.NewSource(seed + 900))
		for trial := 0; trial < 10; trial++ {
			objs := h.randomObjects(rng.Intn(40)+2, rng)
			q := graph.VertexID(rng.Intn(g.NumVertices()))
			k := rng.Intn(8) + 1
			_, byID := h.truth(objs, q, k)
			res := SearchSpec(h.ix, nil, objs, q, UnboundedSpec(k, VariantKNNM))
			want := k
			if objs.Len() < k {
				want = objs.Len()
			}
			if len(res.Neighbors) != want {
				t.Fatalf("seed %d: %d neighbors want %d", seed, len(res.Neighbors), want)
			}
			bound := res.Stats.D0k
			if bound == 0 {
				bound = inf // estimate never formed (|S| < k)
			}
			seen := map[int32]bool{}
			for _, nb := range res.Neighbors {
				if seen[nb.Object.ID] {
					t.Fatalf("duplicate object %d", nb.Object.ID)
				}
				seen[nb.Object.ID] = true
				d := byID[nb.Object.ID]
				if nb.Interval.Lo > d+distTol || nb.Interval.Hi < d-distTol {
					t.Fatalf("interval [%v,%v] misses true %v", nb.Interval.Lo, nb.Interval.Hi, d)
				}
				if d > bound+distTol {
					t.Fatalf("returned object at %v beyond D0k %v", d, bound)
				}
			}
		}
	}
}

func TestQueryVertexHostsObject(t *testing.T) {
	h := roadHarness(t, 8, 8, 4)
	rng := rand.New(rand.NewSource(7))
	objs := h.randomObjects(20, rng)
	// Query from the vertex of object 0: it must come back first at distance 0.
	q := objs.ByID(0).Vertex
	for _, algo := range allAlgorithms() {
		res := algo.run(h, objs, q, 5)
		if len(res.Neighbors) != 5 {
			t.Fatalf("%s: %d results", algo.name, len(res.Neighbors))
		}
		found := false
		for _, nb := range res.Neighbors {
			if nb.Object.Vertex == q && nb.Dist < distTol {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: object at query vertex missing from result", algo.name)
		}
	}
}

func TestKZeroAndEmptySet(t *testing.T) {
	h := roadHarness(t, 6, 6, 5)
	rng := rand.New(rand.NewSource(11))
	objs := h.randomObjects(10, rng)
	empty := NewObjects(h.g, nil)
	for _, algo := range allAlgorithms() {
		if res := algo.run(h, objs, 0, 0); len(res.Neighbors) != 0 {
			t.Fatalf("%s: k=0 returned %d", algo.name, len(res.Neighbors))
		}
		if res := algo.run(h, empty, 0, 3); len(res.Neighbors) != 0 {
			t.Fatalf("%s: empty set returned %d", algo.name, len(res.Neighbors))
		}
	}
}

func TestDuplicateObjectVertices(t *testing.T) {
	// Multiple objects on the same vertex must all be reportable.
	h := roadHarness(t, 6, 6, 6)
	v := graph.VertexID(3)
	objs := NewObjects(h.g, []graph.VertexID{v, v, v, 10, 20})
	topK, byID := h.truth(objs, v, 4)
	for _, algo := range allAlgorithms() {
		res := algo.run(h, objs, v, 4)
		checkResult(t, h, algo, res, objs, v, 4, topK, byID)
	}
}

func TestBrowserStreamsInOrder(t *testing.T) {
	h := roadHarness(t, 9, 9, 7)
	rng := rand.New(rand.NewSource(13))
	objs := h.randomObjects(30, rng)
	q := graph.VertexID(rng.Intn(h.g.NumVertices()))
	_, byID := h.truth(objs, q, objs.Len())

	b := NewBrowserSpec(h.ix, nil, objs, q, UnboundedSpec(0, VariantINN))
	var dists []float64
	for {
		nb, ok := b.Next()
		if !ok {
			break
		}
		dists = append(dists, byID[nb.Object.ID])
	}
	if len(dists) != objs.Len() {
		t.Fatalf("browser yielded %d of %d", len(dists), objs.Len())
	}
	for i := 1; i < len(dists); i++ {
		if dists[i] < dists[i-1]-distTol {
			t.Fatalf("browser order violated at %d", i)
		}
	}
	if b.Stats().Lookups == 0 {
		t.Fatal("browser stats empty")
	}
}

func TestBrowserIncrementalityCheaperThanRestart(t *testing.T) {
	h := roadHarness(t, 9, 9, 8)
	rng := rand.New(rand.NewSource(17))
	objs := h.randomObjects(60, rng)
	q := graph.VertexID(rng.Intn(h.g.NumVertices()))

	b := NewBrowserSpec(h.ix, nil, objs, q, UnboundedSpec(0, VariantINN))
	for i := 0; i < 5; i++ {
		b.Next()
	}
	after5 := b.Stats().Refinements
	for i := 0; i < 5; i++ {
		b.Next()
	}
	after10 := b.Stats().Refinements
	fresh := SearchSpec(h.ix, nil, objs, q, UnboundedSpec(10, VariantINN)).Stats.Refinements
	// Browsing to 10 must not exceed a fresh k=10 search (same state machine).
	if after10 > fresh {
		t.Fatalf("incremental refinements %d > fresh %d", after10, fresh)
	}
	if after5 > after10 {
		t.Fatal("refinement counter went backwards")
	}
}

func TestStatsPopulated(t *testing.T) {
	h := roadHarness(t, 10, 10, 9)
	rng := rand.New(rand.NewSource(19))
	objs := h.randomObjects(40, rng)
	q := graph.VertexID(rng.Intn(h.g.NumVertices()))
	k := 8

	for _, v := range Variants {
		res := SearchSpec(h.ix, nil, objs, q, UnboundedSpec(k, v))
		s := res.Stats
		if s.Algorithm != v.String() || s.K != k {
			t.Fatalf("%v: bad labels %+v", v, s)
		}
		if s.MaxQueue == 0 || s.Lookups == 0 {
			t.Fatalf("%v: queue/lookup stats empty: %+v", v, s)
		}
		if s.DkFinal <= 0 {
			t.Fatalf("%v: DkFinal = %v", v, s.DkFinal)
		}
		switch v {
		case VariantINN:
			if s.LOps != 0 || s.MaxL != 0 {
				t.Fatalf("INN must not touch L: %+v", s)
			}
		case VariantKNN, VariantKNNM:
			if s.MaxL != k || s.LOps == 0 {
				t.Fatalf("%v: L stats wrong: MaxL=%d LOps=%d", v, s.MaxL, s.LOps)
			}
			if s.D0k <= 0 || s.KMinDist0 < 0 {
				t.Fatalf("%v: estimate stats missing: %+v", v, s)
			}
		case VariantKNNI:
			if s.D0k <= 0 {
				t.Fatalf("KNN-I: D0k missing")
			}
		}
	}

	ine := INESpec(h.ix, nil, objs, q, UnboundedSpec(k, VariantKNN))
	if ine.Stats.Settled == 0 || ine.Stats.Relaxed == 0 {
		t.Fatalf("INE expansion stats empty: %+v", ine.Stats)
	}
	ier := IERSpec(h.ix, nil, objs, q, UnboundedSpec(k, VariantKNN))
	if ier.Stats.Settled == 0 || ier.Stats.Relaxed == 0 {
		t.Fatalf("IER per-candidate search stats empty: %+v", ier.Stats)
	}
}

func TestD0kOverestimatesAndKMinDistUnderestimatesDk(t *testing.T) {
	// The paper's estimate-quality relationships (fig p.37): D0k >= Dk-true
	// and KMINDIST <= D0k. Averages over queries: D0k modestly above the
	// true Dk.
	h := roadHarness(t, 12, 12, 10)
	rng := rand.New(rand.NewSource(23))
	violations := 0
	trials := 40
	for trial := 0; trial < trials; trial++ {
		objs := h.randomObjects(50, rng)
		q := graph.VertexID(rng.Intn(h.g.NumVertices()))
		k := 10
		topK, _ := h.truth(objs, q, k)
		trueDk := topK[len(topK)-1]
		res := SearchSpec(h.ix, nil, objs, q, UnboundedSpec(k, VariantKNN))
		s := res.Stats
		if s.D0k < trueDk-distTol {
			violations++ // D0k must upper-bound the true kth distance
		}
		if s.KMinDist0 > s.D0k+distTol {
			t.Fatalf("KMinDist0 %v > D0k %v", s.KMinDist0, s.D0k)
		}
	}
	if violations > 0 {
		t.Fatalf("D0k under-estimated the true Dk in %d/%d trials", violations, trials)
	}
}

func TestINEStopsEarly(t *testing.T) {
	// With a dense object set, INE must settle far fewer vertices than the
	// whole network.
	h := roadHarness(t, 16, 16, 11)
	rng := rand.New(rand.NewSource(29))
	objs := h.randomObjects(h.g.NumVertices()/4, rng)
	res := INESpec(h.ix, nil, objs, graph.VertexID(rng.Intn(h.g.NumVertices())), UnboundedSpec(3, VariantKNN))
	if res.Stats.Settled >= h.g.NumVertices()/2 {
		t.Fatalf("INE settled %d of %d vertices", res.Stats.Settled, h.g.NumVertices())
	}
}

func TestIOStatsOnPagedIndex(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 10, Cols: 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	built, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := built.WritePaged(&img); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(img.Bytes()), int64(img.Len()), store.OpenOptions{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ix := core.NewPagedIndex(core.PagedConfig{Source: st})
	h := &harness{g: g, ix: ix}
	rng := rand.New(rand.NewSource(31))
	objs := h.randomObjects(30, rng)
	q := graph.VertexID(rng.Intn(g.NumVertices()))

	for _, algo := range allAlgorithms() {
		res := algo.run(h, objs, q, 5)
		// The baselines expand the resident network and charge no page;
		// every SILC variant reads the index's block pages.
		if baseline := algo.name == "INE" || algo.name == "IER"; (res.Stats.IO.Accesses() == 0) != baseline {
			t.Fatalf("%s: %d page accesses on a disk-resident index", algo.name, res.Stats.IO.Accesses())
		}
		if res.Stats.CPU <= 0 {
			t.Fatalf("%s: bad times %+v", algo.name, res.Stats)
		}
	}
}

func TestKNNMAcceptsViaKMinDist(t *testing.T) {
	// On dense object sets, kNN-M should accept a good share of its results
	// directly against KMINDIST (the paper reports up to 80-90%).
	h := roadHarness(t, 14, 14, 13)
	rng := rand.New(rand.NewSource(37))
	totalAccepts, totalResults := 0, 0
	for trial := 0; trial < 20; trial++ {
		objs := h.randomObjects(h.g.NumVertices()/10, rng)
		q := graph.VertexID(rng.Intn(h.g.NumVertices()))
		res := SearchSpec(h.ix, nil, objs, q, UnboundedSpec(10, VariantKNNM))
		totalAccepts += res.Stats.KMinDistAccepts
		totalResults += len(res.Neighbors)
	}
	if totalAccepts == 0 {
		t.Fatal("kNN-M never accepted via KMINDIST")
	}
	if totalAccepts > totalResults {
		t.Fatalf("accepts %d exceed results %d", totalAccepts, totalResults)
	}
}

func TestKNNMRefinesLessThanKNN(t *testing.T) {
	h := roadHarness(t, 14, 14, 14)
	rng := rand.New(rand.NewSource(41))
	knnRef, knnmRef := 0, 0
	for trial := 0; trial < 20; trial++ {
		objs := h.randomObjects(h.g.NumVertices()/10, rng)
		q := graph.VertexID(rng.Intn(h.g.NumVertices()))
		knnRef += SearchSpec(h.ix, nil, objs, q, UnboundedSpec(10, VariantKNN)).Stats.Refinements
		knnmRef += SearchSpec(h.ix, nil, objs, q, UnboundedSpec(10, VariantKNNM)).Stats.Refinements
	}
	if knnmRef >= knnRef {
		t.Fatalf("kNN-M refinements %d not below kNN %d", knnmRef, knnRef)
	}
}

func TestKNNQueueSmallerThanINN(t *testing.T) {
	h := roadHarness(t, 14, 14, 15)
	rng := rand.New(rand.NewSource(43))
	knnQ, innQ := 0, 0
	for trial := 0; trial < 20; trial++ {
		objs := h.randomObjects(h.g.NumVertices()/10, rng)
		q := graph.VertexID(rng.Intn(h.g.NumVertices()))
		knnQ += SearchSpec(h.ix, nil, objs, q, UnboundedSpec(10, VariantKNN)).Stats.MaxQueue
		innQ += SearchSpec(h.ix, nil, objs, q, UnboundedSpec(10, VariantINN)).Stats.MaxQueue
	}
	if knnQ >= innQ {
		t.Fatalf("kNN max queue %d not below INN %d (Dk pruning ineffective)", knnQ, innQ)
	}
}
