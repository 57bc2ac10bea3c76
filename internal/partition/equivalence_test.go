package partition

import (
	"math"
	"math/rand"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/testkit"
)

const eps = 1e-9

func approxEq(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

// testNetworks returns small strongly connected networks spanning the
// generator family plus a hand-built irregular one.
func testNetworks(t *testing.T) map[string]*graph.Network {
	t.Helper()
	out := map[string]*graph.Network{}
	g, err := graph.GenerateGrid(9, 11)
	if err != nil {
		t.Fatal(err)
	}
	out["grid9x11"] = g
	for _, seed := range []int64{1, 7} {
		g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 14, Cols: 14, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out["road14x14"+string(rune('a'+seed))] = g
	}
	g, err = graph.GenerateRingRadial(4, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["ring4x9"] = g
	return out
}

// pathCells counts the distinct cells a vertex path passes through.
func pathCells(s *Sharded, path []graph.VertexID) int {
	seen := map[int32]bool{}
	for _, v := range path {
		seen[s.asn.CellOf[v]] = true
	}
	return len(seen)
}

// TestShardedEquivalence is the sharded-correctness property test: on small
// networks, for every partition count, sharded distances, intervals, paths,
// kNN results and range queries must match the monolithic index and the
// Dijkstra/Floyd-Warshall ground truth — including pairs whose shortest
// path crosses two or more partition boundaries.
func TestShardedEquivalence(t *testing.T) {
	for name, g := range testNetworks(t) {
		mono, err := core.Build(g, core.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: monolithic build: %v", name, err)
		}
		truth := testkit.FloydWarshall(g)
		for _, p := range []int{1, 2, 3, 4, 7} {
			if p > g.NumVertices() {
				continue
			}
			s, err := Build(g, Options{Partitions: p})
			if err != nil {
				t.Fatalf("%s P=%d: build: %v", name, p, err)
			}
			checkEquivalence(t, name, g, mono, s, truth, p)
		}
	}
}

func checkEquivalence(t *testing.T, name string, g *graph.Network, mono *core.Index, s *Sharded, truth [][]float64, p int) {
	t.Helper()
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(42))
	type pair struct{ u, v graph.VertexID }
	var pairs []pair
	if n*n <= 4000 {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				pairs = append(pairs, pair{graph.VertexID(u), graph.VertexID(v)})
			}
		}
	} else {
		for i := 0; i < 4000; i++ {
			pairs = append(pairs, pair{graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))})
		}
	}

	multiCross := 0 // pairs whose sharded path spans ≥ 3 cells (≥ 2 boundary crossings)
	qc := core.NewQueryContext()
	for _, pr := range pairs {
		want := truth[pr.u][pr.v]
		got := s.DistanceCtx(qc, pr.u, pr.v)
		if !approxEq(got, want) {
			t.Fatalf("%s P=%d: Distance(%d,%d) = %v, truth %v", name, p, pr.u, pr.v, got, want)
		}
		iv := s.DistanceIntervalCtx(qc, pr.u, pr.v)
		if iv.Lo > want+eps || iv.Hi < want-eps {
			t.Fatalf("%s P=%d: interval [%v,%v] of (%d,%d) excludes truth %v",
				name, p, iv.Lo, iv.Hi, pr.u, pr.v, want)
		}
		path := s.PathCtx(qc, pr.u, pr.v)
		if len(path) == 0 || path[0] != pr.u || path[len(path)-1] != pr.v {
			t.Fatalf("%s P=%d: path(%d,%d) endpoints wrong: %v", name, p, pr.u, pr.v, path)
		}
		if w := testkit.PathWeight(g, path); !approxEq(w, want) {
			t.Fatalf("%s P=%d: path(%d,%d) weighs %v, truth %v", name, p, pr.u, pr.v, w, want)
		}
		if pathCells(s, path) >= 3 {
			multiCross++
		}
		// The router cache is per source; vary sources across the pair list
		// but keep one context alive to exercise reuse and replacement.
		if rng.Intn(4) == 0 {
			qc = core.NewQueryContext()
		}
	}
	if p >= 4 && multiCross == 0 {
		t.Fatalf("%s P=%d: no test pair crossed ≥ 2 partition boundaries", name, p)
	}

	// kNN and range correctness against ground truth, monolithic and sharded
	// side by side on identical object sets. Reported distances of
	// not-fully-refined neighbors are interval bounds that legitimately
	// differ between the two indexes, so each result is verified against the
	// true k-nearest distance multiset instead of against the other result.
	objVerts := make([]graph.VertexID, 0, n/3+1)
	perm := rng.Perm(n)
	for _, v := range perm[:n/3+1] {
		objVerts = append(objVerts, graph.VertexID(v))
	}
	monoObjs := knn.NewObjects(g, objVerts)
	shardObjs := knn.NewObjects(g, objVerts)
	for trial := 0; trial < 12; trial++ {
		q := graph.VertexID(rng.Intn(n))
		k := 1 + rng.Intn(8)
		trueDists := make([]float64, len(objVerts))
		for i, v := range objVerts {
			trueDists[i] = truth[q][v]
		}
		insertionSort(trueDists)
		for _, variant := range knn.Variants {
			mr := knn.SearchSpec(mono, nil, monoObjs, q, knn.UnboundedSpec(k, variant))
			sr := knn.SearchSpec(s, nil, shardObjs, q, knn.UnboundedSpec(k, variant))
			verifyKNN(t, name, p, "mono/"+variant.String(), truth, q, k, trueDists, mr)
			verifyKNN(t, name, p, "sharded/"+variant.String(), truth, q, k, trueDists, sr)
		}
		radius := truth[q][graph.VertexID(rng.Intn(n))] * 0.8
		loCount, hiCount := 0, 0
		for _, d := range trueDists {
			if d <= radius-eps {
				loCount++
			}
			if d <= radius+eps {
				hiCount++
			}
		}
		for label, res := range map[string]knn.Result{
			"mono":    knn.RangeSearchCtx(mono, nil, monoObjs, q, radius),
			"sharded": knn.RangeSearchCtx(s, nil, shardObjs, q, radius),
		} {
			if got := len(res.Neighbors); got < loCount || got > hiCount {
				t.Fatalf("%s P=%d %s: range(%d, %v) reported %d objects, truth says [%d,%d]",
					name, p, label, q, radius, got, loCount, hiCount)
			}
		}
	}
}

// verifyKNN checks one kNN result against ground truth: the reported
// objects' true distances must form the k smallest distances in the object
// set (ties may swap members; distances decide), and every Exact-flagged
// distance must be the true one.
func verifyKNN(t *testing.T, name string, p int, label string, truth [][]float64, q graph.VertexID, k int, sortedTrue []float64, r knn.Result) {
	t.Helper()
	want := k
	if len(sortedTrue) < k {
		want = len(sortedTrue)
	}
	if len(r.Neighbors) != want {
		t.Fatalf("%s P=%d %s q=%d k=%d: got %d neighbors, want %d",
			name, p, label, q, k, len(r.Neighbors), want)
	}
	got := make([]float64, 0, len(r.Neighbors))
	for _, nb := range r.Neighbors {
		td := truth[q][nb.Object.Vertex]
		got = append(got, td)
		if nb.Exact && !approxEq(nb.Dist, td) {
			t.Fatalf("%s P=%d %s q=%d k=%d: exact neighbor at %d reports %v, truth %v",
				name, p, label, q, k, nb.Object.Vertex, nb.Dist, td)
		}
		if nb.Interval.Lo > td+eps || nb.Interval.Hi < td-eps {
			t.Fatalf("%s P=%d %s q=%d k=%d: neighbor %d interval [%v,%v] excludes truth %v",
				name, p, label, q, k, nb.Object.Vertex, nb.Interval.Lo, nb.Interval.Hi, td)
		}
	}
	insertionSort(got)
	for i := range got {
		if !approxEq(got[i], sortedTrue[i]) {
			t.Fatalf("%s P=%d %s q=%d k=%d: rank-%d true distance %v, want %v (full: %v)",
				name, p, label, q, k, i, got[i], sortedTrue[i], got)
		}
	}
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
