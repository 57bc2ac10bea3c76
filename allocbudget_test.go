package silc

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"silc/internal/oracle"
)

// Steady-state allocation budgets for the Engine query surface, in
// allocations per operation with a warm query-context pool. The hot path is
// designed to be allocation-free; what remains is the result materialization
// the API contract requires (the raw neighbor slice drained from the search
// arena plus the public copy convertResult hands the caller — pooling those
// would let a query scribble over a result the caller still holds).
//
// Each budget is the count measured on every backend, not a ceiling above
// it: one new steady-state allocation fails its test. A change that removes
// one lowers the constant; nothing raises it.
const (
	// budgetKNNAllocs bounds Engine.Query (KNN, k=10, warm pool): the
	// drained neighbor slice + the public result copy.
	budgetKNNAllocs = 2
	// budgetRangeAllocs bounds Engine.WithinDistance on a radius returning
	// a handful of objects; same two result slices.
	budgetRangeAllocs = 2
	// budgetNeighborsAllocs bounds a full Engine.Neighbors stream of 10
	// objects: the stream's own state costs one allocation per stream, not
	// one per element.
	budgetNeighborsAllocs = 1
	// budgetLiveKNNAllocs bounds Engine.Query over a pinned live-world
	// snapshot (LiveObjects.View + KNN k=10, store version unchanged):
	// pinning is one atomic load of a cached wrapper, so the live path gets
	// NO extra allowance over the static-set budget.
	budgetLiveKNNAllocs = budgetKNNAllocs
	// budgetLiveMoveAllocs bounds LiveObjects.Move at the live_churn
	// benchmark's population of 1,131 objects: two root-to-leaf path copies
	// of the object quadtree (a node and its child array per level), one
	// chunk and one spine of the slot table, the successor, its snapshot and
	// the next change channel. What it must never again be is a function of
	// the population — TestAllocBudgetLiveMutation also holds a world 16
	// times larger to liveMoveScaling times the small world's count (the
	// tree is two levels deeper there, nothing else grows).
	budgetLiveMoveAllocs = 28
	liveMoveScaling      = 1.5
	// budgetBatchAllocsPerQuery bounds a warm Engine.QueryBatch of 64 kNN
	// queries (k=10, in RAM), divided by 64: each query's two result
	// slices, plus the batch's own result slice and workers spread over
	// the queries. The batch draws its query contexts from the engine
	// pool, as Query does.
	budgetBatchAllocsPerQuery = 3
)

// allocEngine is one backend variant under the allocation budget.
type allocEngine struct {
	name string
	eng  *Engine
}

// allocEngines builds the Engine variants the budgets cover: monolithic
// in-RAM, sharded, and disk-paged with a pool large enough that the steady
// state never evicts (the warm-pool regime — cold loads real-read and
// decode, which legitimately allocates). The paged variant reads its image
// from memory (paged-warm), from a file by positioned reads (paged-pg2-warm)
// and by copies out of a memory mapping of that file (paged-pg2-mmap-warm,
// what OpenEngine serves): neither the file nor the mapping may add a
// single steady-state allocation.
func allocEngines(t testing.TB, net *Network) []allocEngine {
	t.Helper()
	ix, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := Build(net, BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var pg bytes.Buffer
	if _, err := ix.WritePaged(&pg); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenEngineAt(bytes.NewReader(pg.Bytes()), int64(pg.Len()), nil, BuildOptions{CacheFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "alloc.silcpg")
	if err := os.WriteFile(path, pg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	paged2 := openSource(t, path, "ReaderAt", 1.0)
	t.Cleanup(func() { paged2.Close() })
	mapped := openSource(t, path, "File", 1.0)
	t.Cleanup(func() { mapped.Close() })
	return []allocEngine{
		{"monolithic", ix},
		{"sharded", sx},
		{"paged-warm", paged},
		{"paged-pg2-warm", paged2},
		{"paged-pg2-mmap-warm", mapped},
	}
}

// smallPoolEngine is the paged variant behind the paper's 5% pool
// (positioned reads of an in-memory image) that TestAllocBudgetRange adds
// to allocEngines: its warm queries evict and re-read pages, each miss into
// a frame an eviction gave back, and decode every run they look up, so the
// budget holds only if no decoded tree is allocated along the way.
func smallPoolEngine(t testing.TB, net *Network) allocEngine {
	t.Helper()
	ix, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := ix.WritePaged(&img); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenEngineAt(bytes.NewReader(img.Bytes()), int64(img.Len()), nil, BuildOptions{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return allocEngine{"paged-pg2-pool5%-warm", paged}
}

func allocFixture(t testing.TB) (*Network, *ObjectSet, []VertexID, []VertexID) {
	t.Helper()
	net := testNetwork(t)
	rng := rand.New(rand.NewSource(53))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 30)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	queries := make([]VertexID, 8)
	for i := range queries {
		queries[i] = VertexID(rng.Intn(net.NumVertices()))
	}
	return net, mustObjects(t, net, vertices), vertices, queries
}

// measureAllocs warms the path, then measures steady-state allocations.
func measureAllocs(f func()) float64 {
	for i := 0; i < 5; i++ {
		f() // warm the context pool, scratch arenas, and page cache
	}
	return testing.AllocsPerRun(50, f)
}

// pageSourceEngines opens one image of net through each page source of the
// paged benchmarks (pageSources), behind the paper's 5% pool: warm queries
// evict and refill frames, by a positioned read or a copy out of the
// mapping.
func pageSourceEngines(t testing.TB, net *Network) []allocEngine {
	t.Helper()
	ix, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sources.silcpg")
	if _, err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var engines []allocEngine
	for _, src := range pageSources {
		eng := openSource(t, path, src, 0.05)
		t.Cleanup(func() { eng.Close() })
		engines = append(engines, allocEngine{"paged-" + src + "-pool5%-warm", eng})
	}
	return engines
}

// TestAllocBudgetKNN enforces the tentpole property: warm Engine.Query
// (KNN, k=10) stays within budgetKNNAllocs on every backend variant: in
// RAM, sharded, an in-memory image, and a 5% pool over each page source.
func TestAllocBudgetKNN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	net, objs, _, queries := allocFixture(t)
	ctx := context.Background()
	q := queries[0]
	for _, ae := range append(allocEngines(t, net)[:3], pageSourceEngines(t, net)...) {
		t.Run(ae.name, func(t *testing.T) {
			got := measureAllocs(func() {
				if _, err := ae.eng.Query(ctx, objs, q, 10); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.1f allocs/op (budget %d)", ae.name, got, budgetKNNAllocs)
			if got > budgetKNNAllocs {
				t.Fatalf("steady-state KNN k=10 allocates %.1f/op, budget %d", got, budgetKNNAllocs)
			}
		})
	}
}

// TestAllocBudgetBatch enforces budgetBatchAllocsPerQuery on a warm
// in-RAM QueryBatch of 64 queries.
func TestAllocBudgetBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	net, objs, _, _ := allocFixture(t)
	eng := allocEngines(t, net)[0].eng
	rng := rand.New(rand.NewSource(64))
	queries := make([]VertexID, 64)
	for i := range queries {
		queries[i] = VertexID(rng.Intn(net.NumVertices()))
	}
	ctx := context.Background()
	got := measureAllocs(func() {
		if _, err := eng.QueryBatch(ctx, objs, queries, 10); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(queries))
	t.Logf("batch of %d: %.2f allocs/query (budget %d)", len(queries), got, budgetBatchAllocsPerQuery)
	if got > budgetBatchAllocsPerQuery {
		t.Fatalf("warm QueryBatch allocates %.2f/query, budget %d", got, budgetBatchAllocsPerQuery)
	}
}

// TestAllocBudgetRange enforces the same property for the range query.
func TestAllocBudgetRange(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	net, objs, _, queries := allocFixture(t)
	ctx := context.Background()
	q := queries[1]
	for _, ae := range append(allocEngines(t, net), smallPoolEngine(t, net)) {
		t.Run(ae.name, func(t *testing.T) {
			got := measureAllocs(func() {
				if _, err := ae.eng.WithinDistance(ctx, objs, q, 0.25); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.1f allocs/op (budget %d)", ae.name, got, budgetRangeAllocs)
			if got > budgetRangeAllocs {
				t.Fatalf("steady-state range allocates %.1f/op, budget %d", got, budgetRangeAllocs)
			}
		})
	}
}

// TestAllocBudgetNeighbors enforces the budget for a 10-element incremental
// browsing stream; the whole stream is one operation.
func TestAllocBudgetNeighbors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	net, objs, _, queries := allocFixture(t)
	ctx := context.Background()
	q := queries[2]
	for _, ae := range allocEngines(t, net) {
		t.Run(ae.name, func(t *testing.T) {
			got := measureAllocs(func() {
				count := 0
				for _, err := range ae.eng.Neighbors(ctx, objs, q) {
					if err != nil {
						t.Fatal(err)
					}
					if count++; count == 10 {
						break
					}
				}
			})
			t.Logf("%s: %.1f allocs/op (budget %d)", ae.name, got, budgetNeighborsAllocs)
			if got > budgetNeighborsAllocs {
				t.Fatalf("steady-state 10-step browse allocates %.1f/op, budget %d", got, budgetNeighborsAllocs)
			}
		})
	}
}

// TestScratchReuseConcurrentOracle is the scratch-safety property test: many
// goroutines interleave queries on ONE shared engine (so pooled contexts,
// scratch arenas, and refiner slabs are constantly recycled across
// goroutines), and every certified distance must match an independent
// all-pairs oracle. Run under -race in CI; a scratch buffer leaking between
// two in-flight queries shows up as either a race report or a wrong
// distance.
func TestScratchReuseConcurrentOracle(t *testing.T) {
	net, objs, objVerts, queries := allocFixture(t)
	ox, err := oracle.BuildExplicitPaths(net.g)
	if err != nil {
		t.Fatal(err)
	}
	const k = 6
	// Expected k nearest distances per query vertex, straight from the
	// oracle's all-pairs matrix.
	want := make(map[VertexID][]float64, len(queries))
	for _, q := range queries {
		ds := make([]float64, 0, len(objVerts))
		for _, v := range objVerts {
			ds = append(ds, ox.Distance(q, v))
		}
		sort.Float64s(ds)
		want[q] = ds[:k]
	}
	for _, ae := range allocEngines(t, net) {
		t.Run(ae.name, func(t *testing.T) {
			ctx := context.Background()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 30; i++ {
						q := queries[(i+w*3)%len(queries)]
						res, err := ae.eng.Query(ctx, objs, q, k, WithExactDistances())
						if err != nil {
							t.Error(err)
							return
						}
						exp := want[q]
						if len(res.Neighbors) != len(exp) {
							t.Errorf("worker %d: %d neighbors, want %d", w, len(res.Neighbors), len(exp))
							return
						}
						for j, n := range res.Neighbors {
							if math.Abs(n.Dist-exp[j]) > 1e-9 {
								t.Errorf("worker %d query %d neighbor %d: dist %v, oracle %v", w, q, j, n.Dist, exp[j])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if live := ae.eng.liveQueryContexts(); live != 0 {
				t.Fatalf("%d query contexts still checked out after all queries returned", live)
			}
		})
	}
}

// countdownCtx cancels itself after a fixed number of cancellation checks —
// a deterministic way to stop a query mid-refinement, wherever "mid" happens
// to fall for the given countdown.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCancellationReturnsContextToPool is the cancellation-path leak test:
// queries cancelled at every possible depth must still return their pooled
// context (the engine's live counter falls back to zero) and leave no
// goroutines behind.
func TestCancellationReturnsContextToPool(t *testing.T) {
	net, objs, _, queries := allocFixture(t)
	for _, ae := range allocEngines(t, net) {
		t.Run(ae.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cancelled := 0
			for i := 0; i < 60; i++ {
				ctx := &countdownCtx{Context: context.Background(), left: i % 12}
				q := queries[i%len(queries)]
				switch i % 4 {
				case 0:
					if _, err := ae.eng.Query(ctx, objs, q, 10); err != nil {
						cancelled++
					}
				case 1:
					if _, err := ae.eng.WithinDistance(ctx, objs, q, 0.3); err != nil {
						cancelled++
					}
				case 2:
					for _, err := range ae.eng.Neighbors(ctx, objs, q) {
						if err != nil {
							cancelled++
							break
						}
					}
				case 3:
					if _, err := ae.eng.Distance(ctx, q, queries[(i+1)%len(queries)]); err != nil {
						cancelled++
					}
				}
				if live := ae.eng.liveQueryContexts(); live != 0 {
					t.Fatalf("iteration %d: %d contexts leaked", i, live)
				}
			}
			if cancelled == 0 {
				t.Fatal("no query was actually cancelled; countdown too generous to exercise the paths")
			}
			runtime.GC()
			if after := runtime.NumGoroutine(); after > before+2 {
				t.Fatalf("goroutines grew from %d to %d across cancelled queries", before, after)
			}
			t.Logf("%d/60 queries cancelled mid-flight, zero contexts leaked", cancelled)
		})
	}
}

// TestAllocBudgetTraced re-runs the query budgets with metrics recording
// AND phase tracing enabled (Engine.SetTracing — the silcserve
// configuration): the span is a struct field on the pooled context and
// fold-at-release is pure atomics, so full observability must not add a
// single steady-state allocation on any backend.
func TestAllocBudgetTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	net, objs, _, queries := allocFixture(t)
	ctx := context.Background()
	for _, ae := range allocEngines(t, net) {
		ae.eng.SetTracing(true)
		t.Run(ae.name+"/knn", func(t *testing.T) {
			got := measureAllocs(func() {
				if _, err := ae.eng.Query(ctx, objs, queries[0], 10); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s traced: %.1f allocs/op (budget %d)", ae.name, got, budgetKNNAllocs)
			if got > budgetKNNAllocs {
				t.Fatalf("traced KNN allocates %.1f/op, budget %d — tracing added per-query garbage", got, budgetKNNAllocs)
			}
		})
		t.Run(ae.name+"/range", func(t *testing.T) {
			got := measureAllocs(func() {
				if _, err := ae.eng.WithinDistance(ctx, objs, queries[1], 0.25); err != nil {
					t.Fatal(err)
				}
			})
			if got > budgetRangeAllocs {
				t.Fatalf("traced range allocates %.1f/op, budget %d", got, budgetRangeAllocs)
			}
		})
		t.Run(ae.name+"/stats-opt", func(t *testing.T) {
			// WithStats on the scalar queries rides the same span; the
			// caller-supplied struct is the only destination, so the stats
			// fill itself must be allocation-free. A zero-option Distance
			// is fully stack-allocated; passing any Option costs exactly
			// one allocation in applyOptions (the resolved queryOptions
			// escapes through the indirect opt(&o) call) — an options-API
			// cost, not a metrics cost, so the bound here is bare+1.
			bare := measureAllocs(func() {
				if _, err := ae.eng.Distance(ctx, queries[2], queries[3]); err != nil {
					t.Fatal(err)
				}
			})
			var st QueryStats
			opt := WithStats(&st)
			got := measureAllocs(func() {
				if _, err := ae.eng.Distance(ctx, queries[2], queries[3], opt); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s traced distance: bare %.1f, +stats %.1f allocs/op", ae.name, bare, got)
			if bare > 0 {
				t.Fatalf("traced bare Distance allocates %.1f/op, want 0", bare)
			}
			if got > bare+1 {
				t.Fatalf("traced Distance with WithStats allocates %.1f/op, want ≤ %.1f", got, bare+1)
			}
		})
	}
}

// TestAllocBudgetScrapeDuringQueries proves a concurrent /metrics scrape
// never adds allocations to the query hot path: scrape-time allocation is
// the scraper's own cost, recording stays plain atomics.
func TestAllocBudgetScrapeDuringQueries(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	net, objs, _, queries := allocFixture(t)
	ctx := context.Background()
	ae := allocEngines(t, net)[0] // monolithic: the tightest baseline
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sink bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
				sink.Reset()
				ae.eng.WriteMetrics(&sink)
			}
		}
	}()
	// testing.AllocsPerRun counts every goroutine's allocations. Its single
	// P keeps the scraper off the CPU while the queries run, unless a loaded
	// machine stretches them past a scheduler time slice: then the scraper
	// runs and its own allocations land in the count. The scraper can only
	// add to it, so the least of three measurements is the query's.
	got := math.Inf(1)
	for try := 0; try < 3 && got > budgetKNNAllocs; try++ {
		got = min(got, measureAllocs(func() {
			if _, err := ae.eng.Query(ctx, objs, queries[0], 10); err != nil {
				t.Fatal(err)
			}
		}))
	}
	close(stop)
	wg.Wait()
	t.Logf("KNN under concurrent scrape: %.1f allocs/op (budget %d)", got, budgetKNNAllocs)
	if got > budgetKNNAllocs {
		t.Fatalf("KNN under concurrent scrapes allocates %.1f/op, budget %d", got, budgetKNNAllocs)
	}
}

// TestAllocBudgetLiveKNN enforces the live-world extension of the tentpole
// property: a warm kNN over a pinned snapshot of a mutable object store
// costs no more allocations than one over a static set — View() is a cached
// atomic load while the version is unchanged, not a per-query rebuild.
func TestAllocBudgetLiveKNN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	net, _, vertices, queries := allocFixture(t)
	live, err := NewLiveObjects(net, LiveObjectsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for _, v := range vertices {
		if _, _, err := live.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	q := queries[0]
	for _, ae := range allocEngines(t, net) {
		t.Run(ae.name, func(t *testing.T) {
			got := measureAllocs(func() {
				if _, err := ae.eng.Query(ctx, live.View(), q, 10); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.1f allocs/op (budget %d)", ae.name, got, budgetLiveKNNAllocs)
			if got > budgetLiveKNNAllocs {
				t.Fatalf("steady-state live-snapshot KNN allocates %.1f/op, budget %d", got, budgetLiveKNNAllocs)
			}
		})
	}
}

// liveWorld seeds a live world of the given population on a lattice at the
// live_churn benchmark's 30% object density, ids 0..objects-1.
func liveWorld(t testing.TB, objects int) (*LiveObjects, func() VertexID, *rand.Rand) {
	t.Helper()
	side := int(math.Ceil(math.Sqrt(float64(objects) / 0.3)))
	net, err := GenerateGrid(side, side)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewLiveObjects(net, LiveObjectsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(objects)))
	randomVertex := func() VertexID { return VertexID(rng.Intn(net.NumVertices())) }
	for i := 0; i < objects; i++ {
		if _, _, err := live.Insert(randomVertex()); err != nil {
			t.Fatal(err)
		}
	}
	return live, randomVertex, rng
}

// TestAllocBudgetLiveMutation pins what a mutation of the live world
// allocates: a bounded count at the benchmark's population, and nearly the
// same count at sixteen times the population — a successor snapshot copies a
// path and a chunk, it does not rebuild the set.
func TestAllocBudgetLiveMutation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	allocsPerMove := func(objects int) float64 {
		live, randomVertex, rng := liveWorld(t, objects)
		defer live.Close()
		return testing.AllocsPerRun(2000, func() {
			if _, err := live.Move(int32(rng.Intn(objects)), randomVertex()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsPerMove(1131), allocsPerMove(16*1131)
	t.Logf("Move: %.1f allocs/op at 1,131 objects (budget %d), %.1f at 18,096 (%.2fx, bound %.1fx)",
		small, budgetLiveMoveAllocs, large, large/small, liveMoveScaling)
	if small > budgetLiveMoveAllocs {
		t.Fatalf("a Move of 1,131 live objects allocates %.1f/op, budget %d", small, budgetLiveMoveAllocs)
	}
	if large > liveMoveScaling*small {
		t.Fatalf("a Move of 18,096 live objects allocates %.1f/op, %.2fx the %.1f of 1,131 objects; bound %.1fx",
			large, large/small, small, liveMoveScaling)
	}
}

// TestAllocBudgetColdDistance pins what one cold distance costs a freshly
// opened paged index (positioned reads, 5% pool): at most a frame per
// page read — fewer once the pool fills and each eviction gives its frame
// to the next miss (7 allocations for 28 reads) — and two allocations
// besides: the WithStats option and the frame map's first bucket. Each
// refinement hop is a single-block lookup that decodes at most 16 blocks
// of its vertex's run and keeps one; none builds a tree (at 3 allocations
// per decoded tree, a path that did cost several times this budget).
func TestAllocBudgetColdDistance(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 24, Cols: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := built.WritePaged(&img); err != nil {
		t.Fatal(err)
	}
	open := func() *Engine {
		idx, err := OpenEngineAt(bytes.NewReader(img.Bytes()), int64(img.Len()), nil, BuildOptions{CacheFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	ctx := context.Background()
	src, dst := VertexID(0), VertexID(net.NumVertices()-1)
	var st QueryStats
	distance := func(e *Engine, u, v VertexID) {
		if _, err := e.Distance(ctx, u, v, WithStats(&st)); err != nil {
			t.Fatal(err)
		}
	}
	// One P and no GC from here on: sync.Pool caches per P and empties over
	// two GC cycles, so warmed scratch would otherwise be lost at random and
	// reallocated inside the measured query.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm the process-wide gather scratch on another handle, and the
	// measured engine's context pool with a distance that reads no page.
	distance(open(), src, dst)
	e := open()
	distance(e, src, src)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	distance(e, src, dst)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("cold distance %d->%d: %d allocs, %d page reads, %d refinements, %d blocks decoded",
		src, dst, allocs, st.PageReads, st.Refinements, st.BlocksDecoded)
	if st.PageReads == 0 {
		t.Fatal("cold distance read no page")
	}
	if budget := uint64(st.PageReads) + 2; allocs > budget {
		t.Fatalf("cold distance allocates %d, budget %d (page reads + 2)", allocs, budget)
	}
}

// budgetWarmPagedDistanceAllocs bounds the allocations of a warm pass of
// 32 distances behind an evicting pool (TestAllocBudgetWarmPagedDistance),
// however many pages the pass reads: two per distance, its QueryStats and
// the WithStats option. Measured 64 with 306 page reads; 70 while the store
// cached the trees of second lookups, 395 when every miss allocated a
// frame.
const budgetWarmPagedDistanceAllocs = 64

// TestAllocBudgetWarmPagedDistance pins what warm distances cost behind a
// 5% pool over positioned reads that does evict: every miss reads into
// a frame an eviction gave back and no lookup builds a tree, so the
// allocations of a pass do not grow with its page reads.
func TestAllocBudgetWarmPagedDistance(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 24, Cols: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := built.WritePaged(&img); err != nil {
		t.Fatal(err)
	}
	e, err := OpenEngineAt(bytes.NewReader(img.Bytes()), int64(img.Len()), nil, BuildOptions{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pairs := make([][2]VertexID, 32)
	for i := range pairs {
		pairs[i] = [2]VertexID{VertexID(rng.Intn(net.NumVertices())), VertexID(rng.Intn(net.NumVertices()))}
	}
	ctx := context.Background()
	var reads, evictions int64
	pass := func() {
		for _, p := range pairs {
			var st QueryStats
			if _, err := e.Distance(ctx, p[0], p[1], WithStats(&st)); err != nil {
				t.Fatal(err)
			}
			reads += st.PageReads
			evictions += st.Evictions
		}
	}
	// One P and no GC, as in TestAllocBudgetColdDistance; the warm-up
	// passes fill the pool, its free list and the context pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 4; i++ {
		pass()
	}
	reads, evictions = 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("warm pass of %d distances: %d allocs, %d page reads, %d evictions", len(pairs), allocs, reads, evictions)
	if evictions == 0 || reads == 0 {
		t.Fatalf("the pass read %d pages and evicted %d: the pool must evict", reads, evictions)
	}
	if allocs > budgetWarmPagedDistanceAllocs {
		t.Fatalf("warm pass allocates %d, budget %d (it read %d pages)", allocs, budgetWarmPagedDistanceAllocs, reads)
	}
}
