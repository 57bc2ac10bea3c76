package silc

import (
	"context"
	"iter"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// concurrencyFixture builds one shared index — in RAM, or disk-resident
// (written under t.TempDir() and reopened behind the default 5% pool) — an
// object set, and a pool of query vertices.
func concurrencyFixture(t *testing.T, diskResident bool) (*Engine, *ObjectSet, []VertexID) {
	t.Helper()
	net := testNetwork(t)
	ix := testIndex(t, net)
	if diskResident {
		ix = testDiskIndex(t, net)
	}
	rng := rand.New(rand.NewSource(77))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 40)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	queries := make([]VertexID, 60)
	for i := range queries {
		queries[i] = VertexID(rng.Intn(net.NumVertices()))
	}
	return ix, mustObjects(t, net, vertices), queries
}

func neighborsEqual(t *testing.T, tag string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", tag, len(got), len(want))
	}
	for i := range got {
		// Equidistant neighbors may legally swap order, so compare the
		// certified distances rather than object identity.
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("%s: neighbor %d dist %v, want %v", tag, i, got[i].Dist, want[i].Dist)
		}
	}
}

func testParallelQueries(t *testing.T, diskResident bool) {
	eng, objs, queries := concurrencyFixture(t, diskResident)
	const k = 5

	want := make([]Result, len(queries))
	for i, q := range queries {
		want[i] = on(t, eng).knnExact(objs, q, k)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queries {
				j := (i + w*7) % len(queries)
				res, err := eng.Query(context.Background(), objs, queries[j], k, WithExactDistances())
				if err != nil {
					t.Error(err)
					return
				}
				neighborsEqual(t, "parallel query", res.Neighbors, want[j].Neighbors)
				if diskResident && res.Stats.PageHits+res.Stats.PageMisses == 0 {
					t.Errorf("disk-resident query reported no page traffic")
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestParallelQueriesMemoryResident(t *testing.T) { testParallelQueries(t, false) }
func TestParallelQueriesOnDisk(t *testing.T)         { testParallelQueries(t, true) }

func TestQueryBatchMatchesSequential(t *testing.T) {
	for _, disk := range []bool{false, true} {
		ix, objs, queries := concurrencyFixture(t, disk)
		const k = 4
		eng := on(t, ix)
		batch := eng.batch(objs, queries, k)
		if len(batch.Results) != len(queries) {
			t.Fatalf("batch returned %d results for %d queries", len(batch.Results), len(queries))
		}
		if batch.Stats.Queries != len(queries) || batch.Stats.Workers < 1 {
			t.Fatalf("batch stats: %+v", batch.Stats)
		}
		if batch.Stats.QPS <= 0 || batch.Stats.Wall <= 0 {
			t.Fatalf("batch stats: %+v", batch.Stats)
		}
		var hits, misses int64
		for i, q := range queries {
			want := eng.knn(objs, q, k)
			neighborsEqual(t, "batch result", batch.Results[i].Neighbors, want.Neighbors)
			hits += batch.Results[i].Stats.PageHits
			misses += batch.Results[i].Stats.PageMisses
		}
		// Aggregate traffic is exactly the sum of per-query traffic.
		if hits != batch.Stats.PageHits || misses != batch.Stats.PageMisses {
			t.Fatalf("aggregate IO %d/%d != summed per-query %d/%d",
				batch.Stats.PageHits, batch.Stats.PageMisses, hits, misses)
		}
		if disk && batch.Stats.PageHits+batch.Stats.PageMisses == 0 {
			t.Fatal("disk-resident batch reported no page traffic")
		}
		if !disk && batch.Stats.PageHits+batch.Stats.PageMisses != 0 {
			t.Fatal("memory-resident batch should report zero page traffic")
		}
	}
}

func TestQueryBatchWorkersBound(t *testing.T) {
	ix, objs, queries := concurrencyFixture(t, false)
	eng := on(t, ix)
	one := eng.batch(objs, queries, 3, WithWorkers(1))
	four := eng.batch(objs, queries, 3, WithWorkers(4))
	if one.Stats.Workers != 1 || four.Stats.Workers != 4 {
		t.Fatalf("workers = %d and %d", one.Stats.Workers, four.Stats.Workers)
	}
	for i := range queries {
		neighborsEqual(t, "worker bound", four.Results[i].Neighbors, one.Results[i].Neighbors)
	}
	empty := eng.batch(objs, nil, 3)
	if len(empty.Results) != 0 || empty.Stats.Queries != 0 {
		t.Fatalf("empty batch: %+v", empty.Stats)
	}
}

func TestQueryBatchAllMethods(t *testing.T) {
	ix, objs, queries := concurrencyFixture(t, true)
	queries = queries[:10]
	for _, m := range []Method{MethodKNN, MethodINN, MethodKNNI, MethodKNNM, MethodINE, MethodIER} {
		batch := on(t, ix).batch(objs, queries, 3, WithMethod(m))
		for i, res := range batch.Results {
			if len(res.Neighbors) != 3 {
				t.Fatalf("%v query %d: %d neighbors", m, i, len(res.Neighbors))
			}
		}
	}
}

// TestConcurrentBrowsers interleaves several distance-browsing cursors over
// one shared disk-resident index: each cursor must stream the same sequence
// a fresh solo cursor produces.
func TestConcurrentBrowsers(t *testing.T) {
	eng, objs, queries := concurrencyFixture(t, true)
	starts := queries[:6]
	const steps = 15

	want := make([][]Neighbor, len(starts))
	for i, q := range starts {
		next := on(t, eng).browse(objs, q)
		for j := 0; j < steps; j++ {
			n, ok := next()
			if !ok {
				break
			}
			want[i] = append(want[i], n)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		for i, q := range starts {
			wg.Add(1)
			go func(i int, q VertexID) {
				defer wg.Done()
				var stats QueryStats
				next, stop := iter.Pull2(eng.Neighbors(context.Background(), objs, q, WithStats(&stats)))
				for j := 0; j < steps; j++ {
					n, err, ok := next()
					if !ok || err != nil {
						if j != len(want[i]) || err != nil {
							t.Errorf("cursor %d ended at %d (err %v), want %d", i, j, err, len(want[i]))
						}
						stop()
						return
					}
					if math.Abs(n.Dist-want[i][j].Dist) > 1e-9 {
						t.Errorf("cursor %d step %d: dist %v, want %v", i, j, n.Dist, want[i][j].Dist)
						stop()
						return
					}
				}
				stop() // ends the stream, which flushes its statistics
				if stats.PageHits+stats.PageMisses == 0 {
					t.Errorf("cursor %d reported no page traffic", i)
				}
			}(i, q)
		}
	}
	wg.Wait()
}

// TestConcurrentMixedReaders drives every public query primitive at once
// over one shared disk-resident index — the -race canary for the whole
// query surface.
func TestConcurrentMixedReaders(t *testing.T) {
	eng, objs, queries := concurrencyFixture(t, true)
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				f(i)
			}
		}()
	}
	n := len(queries)
	ctx := context.Background()
	check := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	run(func(i int) { _, err := eng.Query(ctx, objs, queries[i%n], 3, WithExactDistances()); check(err) })
	run(func(i int) { _, err := eng.Distance(ctx, queries[i%n], queries[(i+1)%n]); check(err) })
	run(func(i int) { _, err := eng.ShortestPath(ctx, queries[i%n], queries[(i+3)%n]); check(err) })
	run(func(i int) { _, err := eng.DistanceInterval(ctx, queries[i%n], queries[(i+5)%n]); check(err) })
	run(func(i int) { _, err := eng.IsCloser(ctx, queries[i%n], queries[(i+1)%n], queries[(i+2)%n]); check(err) })
	run(func(i int) { _, err := eng.WithinDistance(ctx, objs, queries[i%n], 0.2); check(err) })
	run(func(i int) { eng.IOStats() })
	wg.Wait()
	if s := eng.IOStats(); s.PageHits+s.PageMisses == 0 {
		t.Fatal("pool-wide counters should have accumulated traffic")
	}
}

// TestDiskPerQueryStatsSumToPool is the end-to-end form of the statsum
// regression in internal/diskio: 64 goroutines query one shared disk-resident
// index at once, and the per-query page counters — each charged to the
// query's own context, never diffed from the shared pool — must sum to the
// pool-wide totals exactly.
func TestDiskPerQueryStatsSumToPool(t *testing.T) {
	eng, objs, queries := concurrencyFixture(t, true)
	const goroutines = 64
	sums := make([]QueryStats, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				res, err := eng.Query(context.Background(), objs, queries[(g+i*5)%len(queries)], 4)
				if err != nil {
					t.Error(err)
					return
				}
				sums[g].PageHits += res.Stats.PageHits
				sums[g].PageMisses += res.Stats.PageMisses
				sums[g].PageReads += res.Stats.PageReads
			}
		}(g)
	}
	wg.Wait()
	var sum IOStats
	for _, s := range sums {
		sum.PageHits += s.PageHits
		sum.PageMisses += s.PageMisses
		sum.PageReads += s.PageReads
	}
	pool := eng.IOStats()
	pool.MeasuredIOTime = 0 // the store's read clock has no per-query share
	if sum != pool || pool.PageMisses == 0 {
		t.Fatalf("per-query sum %+v != pool totals %+v", sum, pool)
	}
}
