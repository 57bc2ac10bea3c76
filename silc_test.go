package silc

import (
	"bytes"
	"context"
	"iter"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

func testNetwork(t testing.TB) *Network {
	t.Helper()
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 14, Cols: 14, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testIndex(t testing.TB, net *Network) *Engine {
	t.Helper()
	ix, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// mustObjects builds a validated object set or fails the test.
func mustObjects(t testing.TB, net *Network, vertices []VertexID) *ObjectSet {
	t.Helper()
	objs, err := NewObjectSet(net, vertices)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

// tq is the tests' error-free view of an Engine: each call fails the test
// on an error, so assertions read like the queries they check. It calls
// t.Fatal, so it is for the test's own goroutine only.
type tq struct {
	t testing.TB
	e *Engine
}

func on(t testing.TB, e *Engine) tq { return tq{t: t, e: e} }

func (q tq) dist(u, v VertexID) float64 {
	q.t.Helper()
	d, err := q.e.Distance(context.Background(), u, v)
	if err != nil {
		q.t.Fatal(err)
	}
	return d
}

func (q tq) interval(u, v VertexID) Interval {
	q.t.Helper()
	iv, err := q.e.DistanceInterval(context.Background(), u, v)
	if err != nil {
		q.t.Fatal(err)
	}
	return iv
}

func (q tq) path(u, v VertexID) []VertexID {
	q.t.Helper()
	p, err := q.e.ShortestPath(context.Background(), u, v)
	if err != nil {
		q.t.Fatal(err)
	}
	return p
}

func (q tq) closer(u, a, b VertexID) bool {
	q.t.Helper()
	c, err := q.e.IsCloser(context.Background(), u, a, b)
	if err != nil {
		q.t.Fatal(err)
	}
	return c
}

// knn is Engine.Query; knnExact adds WithExactDistances.
func (q tq) knn(objs *ObjectSet, v VertexID, k int, opts ...Option) Result {
	q.t.Helper()
	res, err := q.e.Query(context.Background(), objs, v, k, opts...)
	if err != nil {
		q.t.Fatal(err)
	}
	return res
}

func (q tq) knnExact(objs *ObjectSet, v VertexID, k int) Result {
	q.t.Helper()
	return q.knn(objs, v, k, WithExactDistances())
}

func (q tq) within(objs *ObjectSet, v VertexID, radius float64) Result {
	q.t.Helper()
	res, err := q.e.WithinDistance(context.Background(), objs, v, radius)
	if err != nil {
		q.t.Fatal(err)
	}
	return res
}

func (q tq) batch(objs *ObjectSet, queries []VertexID, k int, opts ...Option) BatchResult {
	q.t.Helper()
	br, err := q.e.QueryBatch(context.Background(), objs, queries, k, opts...)
	if err != nil {
		q.t.Fatal(err)
	}
	return br
}

// browse is the cursor form of Engine.Neighbors: iter.Pull2 over the
// stream, released when the test ends.
func (q tq) browse(objs *ObjectSet, v VertexID, opts ...Option) func() (Neighbor, bool) {
	next, stop := iter.Pull2(q.e.Neighbors(context.Background(), objs, v, opts...))
	q.t.Cleanup(stop)
	return func() (Neighbor, bool) {
		q.t.Helper()
		n, err, ok := next()
		if ok && err != nil {
			q.t.Fatal(err)
		}
		return n, ok
	}
}

func TestEndToEndNearestNeighbors(t *testing.T) {
	net := testNetwork(t)
	ix := testIndex(t, net)
	rng := rand.New(rand.NewSource(1))

	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 25)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	objs := mustObjects(t, net, vertices)
	q := VertexID(perm[30])

	eng := on(t, ix)
	res := eng.knnExact(objs, q, 5)
	if len(res.Neighbors) != 5 || !res.Sorted {
		t.Fatalf("result shape: %d sorted=%v", len(res.Neighbors), res.Sorted)
	}
	prev := -1.0
	for _, n := range res.Neighbors {
		if !n.Exact {
			t.Fatal("WithExactDistances must return exact distances")
		}
		if n.Dist < prev {
			t.Fatal("results not sorted")
		}
		prev = n.Dist
		// Cross-check against the index's own exact distance.
		if d := eng.dist(q, n.Vertex); math.Abs(d-n.Dist) > 1e-9 {
			t.Fatalf("distance mismatch: %v vs %v", n.Dist, d)
		}
	}
	if res.Stats.Method != "KNN" || res.Stats.Lookups == 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

func TestAllMethodsAgreeOnResultSet(t *testing.T) {
	net := testNetwork(t)
	ix := testIndex(t, net)
	rng := rand.New(rand.NewSource(2))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 40)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	objs := mustObjects(t, net, vertices)
	q := VertexID(perm[50])
	k := 7

	eng := on(t, ix)
	reference := eng.knnExact(objs, q, k)
	refDists := make([]float64, k)
	for i, n := range reference.Neighbors {
		refDists[i] = n.Dist
	}

	for _, m := range []Method{MethodKNN, MethodINN, MethodKNNI, MethodKNNM, MethodINE, MethodIER} {
		res := eng.knn(objs, q, k, WithMethod(m))
		if len(res.Neighbors) != k {
			t.Fatalf("%v: %d results", m, len(res.Neighbors))
		}
		dists := make([]float64, k)
		for i, n := range res.Neighbors {
			dists[i] = eng.dist(q, n.Vertex)
		}
		if !res.Sorted {
			sortFloats(dists)
		}
		for i := range dists {
			if math.Abs(dists[i]-refDists[i]) > 1e-9 {
				t.Fatalf("%v: rank %d dist %v want %v", m, i, dists[i], refDists[i])
			}
		}
		if res.Stats.Method != m.String() {
			t.Fatalf("%v: stats method %q", m, res.Stats.Method)
		}
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestBrowserMatchesNearestNeighbors(t *testing.T) {
	net := testNetwork(t)
	ix := testIndex(t, net)
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 20)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	objs := mustObjects(t, net, vertices)
	q := VertexID(perm[25])

	eng := on(t, ix)
	want := eng.knnExact(objs, q, objs.Len())
	next := eng.browse(objs, q)
	for i := 0; ; i++ {
		n, ok := next()
		if !ok {
			if i != objs.Len() {
				t.Fatalf("browser exhausted after %d of %d", i, objs.Len())
			}
			break
		}
		if math.Abs(n.Dist-want.Neighbors[i].Dist) > 1e-9 {
			t.Fatalf("rank %d: browser %v batch %v", i, n.Dist, want.Neighbors[i].Dist)
		}
		if !n.Exact {
			t.Fatal("browser distances must be exact")
		}
	}
}

func TestShortestPathAndIntervals(t *testing.T) {
	net := testNetwork(t)
	ix := testIndex(t, net)
	u, v := VertexID(0), VertexID(net.NumVertices()-1)

	eng := on(t, ix)
	iv := eng.interval(u, v)
	d := eng.dist(u, v)
	if iv.Lo > d+1e-9 || iv.Hi < d-1e-9 {
		t.Fatalf("interval [%v,%v] misses %v", iv.Lo, iv.Hi, d)
	}
	path := eng.path(u, v)
	if path[0] != u || path[len(path)-1] != v {
		t.Fatal("bad path endpoints")
	}
	total := 0.0
	for i := 1; i < len(path); i++ {
		targets, weights := net.Neighbors(path[i-1])
		found := false
		for j, tgt := range targets {
			if tgt == path[i] {
				if !found || weights[j] < 0 {
					total += weights[j]
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("path hop %d->%d is not an edge", path[i-1], path[i])
		}
	}
	if math.Abs(total-d) > 1e-9 {
		t.Fatalf("path weight %v != distance %v", total, d)
	}
}

func TestRefinerConverges(t *testing.T) {
	net := testNetwork(t)
	ix := testIndex(t, net)
	u, v := VertexID(3), VertexID(net.NumVertices()-4)
	r, err := ix.NewRefiner(u, v)
	if err != nil {
		t.Fatal(err)
	}
	want := on(t, ix).dist(u, v)
	steps := 0
	for !r.Done() {
		r.Step()
		steps++
		iv := r.Interval()
		if iv.Lo > want+1e-9 || iv.Hi < want-1e-9 {
			t.Fatalf("interval lost the true distance at step %d", steps)
		}
	}
	if r.Steps() != steps {
		t.Fatal("step count mismatch")
	}
	if via, acc, ok := r.Via(); !ok || via != v || math.Abs(acc-want) > 1e-9 {
		t.Fatalf("Via after convergence = %d,%v", via, acc)
	}
}

// TestRefinerViaOnOneCellPath steps refiners on a 4-cell engine: a pair
// inside one self-contained cell walks that cell's quadtree path, so its via
// vertex is reported in global ids, on a shortest path from the source at
// its exact distance; a cross-cell pair races routes and reports none.
func TestRefinerViaOnOneCellPath(t *testing.T) {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Build(net, BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Sharded.SelfContained == 0 {
		t.Fatal("no self-contained cell to walk")
	}
	q := on(t, eng)
	n := VertexID(net.NumVertices())
	walked := 0
	for u := VertexID(0); u < n; u += 5 {
		for v := n - 1; v > u; v -= 7 {
			r, err := eng.NewRefiner(u, v)
			if err != nil {
				t.Fatal(err)
			}
			d := q.dist(u, v)
			_, _, ok := r.Via()
			if ok && eng.PartitionOf(u) != eng.PartitionOf(v) {
				t.Fatalf("cross-cell (%d, %d) reports a via vertex", u, v)
			}
			for ok {
				via, acc, stillOK := r.Via()
				if !stillOK || eng.PartitionOf(via) != eng.PartitionOf(u) ||
					math.Abs(acc-q.dist(u, via)) > 1e-9 || math.Abs(acc+q.dist(via, v)-d) > 1e-9 {
					t.Fatalf("(%d, %d) step %d: via %d at %v (ok %t), d(u,via) %v, d(via,v) %v, d %v",
						u, v, r.Steps(), via, acc, stillOK, q.dist(u, via), q.dist(via, v), d)
				}
				if r.Done() {
					walked++
					break
				}
				r.Step()
			}
		}
	}
	if walked == 0 {
		t.Fatal("no pair walked one cell's path")
	}
	t.Logf("%d pairs walked one cell's path", walked)
}

func TestIsCloser(t *testing.T) {
	net := testNetwork(t)
	ix := testIndex(t, net)
	rng := rand.New(rand.NewSource(4))
	eng := on(t, ix)
	for trial := 0; trial < 100; trial++ {
		u := VertexID(rng.Intn(net.NumVertices()))
		a := VertexID(rng.Intn(net.NumVertices()))
		b := VertexID(rng.Intn(net.NumVertices()))
		da, db := eng.dist(u, a), eng.dist(u, b)
		if math.Abs(da-db) < 1e-12 {
			continue // tie: either answer acceptable
		}
		if got := eng.closer(u, a, b); got != (da < db) {
			t.Fatalf("IsCloser(%d,%d,%d)=%v but %v vs %v", u, a, b, got, da, db)
		}
	}
}

func TestObjectSetFromPoints(t *testing.T) {
	net := testNetwork(t)
	pts := []Point{{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.8}}
	objs, err := NewObjectSetFromPoints(net, pts)
	if err != nil {
		t.Fatal(err)
	}
	if objs.Len() != 2 {
		t.Fatalf("len = %d", objs.Len())
	}
	for i, p := range pts {
		want := net.NearestVertex(p)
		if got := objs.Vertex(int32(i)); got != want {
			t.Fatalf("object %d snapped to %d want %d", i, got, want)
		}
	}
	got := objs.NearestEuclidean(Point{X: 0.1, Y: 0.1}, 2)
	if len(got) != 2 || got[0] != 0 {
		t.Fatalf("NearestEuclidean = %v", got)
	}
}

func TestNetworkSerializationRoundTrip(t *testing.T) {
	net := testNetwork(t)
	var buf bytes.Buffer
	if err := net.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != net.NumVertices() || back.NumEdges() != net.NumEdges() {
		t.Fatal("round trip changed the network")
	}
}

func TestNetworkBuilderAndCustomQueries(t *testing.T) {
	nb := NewNetworkBuilder()
	a := nb.AddVertex(Point{X: 0.1, Y: 0.5})
	b := nb.AddVertex(Point{X: 0.5, Y: 0.5})
	c := nb.AddVertex(Point{X: 0.9, Y: 0.5})
	d := nb.AddVertex(Point{X: 0.5, Y: 0.9})
	nb.AddRoad(a, b, 0.5)
	nb.AddRoad(b, c, 0.5)
	nb.AddRoad(b, d, 0.6)
	nb.AddRoad(a, d, 0.7)
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := on(t, testIndex(t, net))
	if got := eng.dist(a, c); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("Distance(a,c) = %v", got)
	}
	if got := eng.path(a, c); len(got) != 3 || got[1] != b {
		t.Fatalf("path = %v", got)
	}
	// Degenerate collinear network must still work.
	if got := eng.dist(d, c); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("Distance(d,c) = %v", got)
	}
}

// testDiskIndex builds the test index disk-resident: persisted under
// t.TempDir() and reopened behind the default 5% pool.
func testDiskIndex(t testing.TB, net *Network) *Engine {
	t.Helper()
	return diskEngine(t, net, BuildOptions{})
}

// diskEngine builds net's index with opts, writes its paged image under
// tb.TempDir() and reopens it disk-resident with the same opts; the engine
// is closed when the test ends.
func diskEngine(tb testing.TB, net *Network, opts BuildOptions) *Engine {
	tb.Helper()
	built, err := Build(net, opts)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "ix.silcpg")
	if _, err := built.WriteFile(path); err != nil {
		tb.Fatal(err)
	}
	eng, err := OpenEngine(path, nil, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	return eng
}

func TestOnDiskIOStats(t *testing.T) {
	net := testNetwork(t)
	ix := testDiskIndex(t, net)
	on(t, ix).dist(0, VertexID(net.NumVertices()-1))
	s := ix.IOStats()
	if s.PageMisses == 0 || s.PageReads != s.PageMisses || s.MeasuredIOTime <= 0 {
		t.Fatalf("a cold disk-resident query must miss, and every miss is a timed real read: %+v", s)
	}
	ix.ResetIOStats()
	if s := ix.IOStats(); s != (IOStats{}) {
		t.Fatalf("reset failed: %+v", s)
	}

	mem := testIndex(t, net)
	if s := mem.IOStats(); s != (IOStats{}) {
		t.Fatalf("in-memory index reported IO: %+v", s)
	}
}

func TestBuildIndexErrors(t *testing.T) {
	if _, err := Build(nil, BuildOptions{}); err == nil {
		t.Fatal("nil network accepted")
	}
	nb := NewNetworkBuilder()
	nb.AddVertex(Point{X: 0.1, Y: 0.1})
	nb.AddVertex(Point{X: 0.9, Y: 0.9})
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(net, BuildOptions{}); err == nil {
		t.Fatal("disconnected network accepted")
	}
}

func TestMethodString(t *testing.T) {
	cases := map[Method]string{
		MethodKNN: "KNN", MethodINN: "INN", MethodKNNI: "KNN-I",
		MethodKNNM: "KNN-M", MethodINE: "INE", MethodIER: "IER", Method(99): "unknown",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}
