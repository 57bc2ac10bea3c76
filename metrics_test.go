package silc

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// pagedTestEngine builds a grid index on disk under t.TempDir() — persisted
// in the paged format and reopened through a deliberately tiny buffer
// pool — so a query sweep is cold: misses, real page reads of the file,
// block decodes, and evictions are all forced.
func pagedTestEngine(t *testing.T) (*Engine, *ObjectSet) {
	t.Helper()
	net, err := GenerateGrid(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	paged := diskEngine(t, net, BuildOptions{CacheFraction: 0.05})
	vs := make([]VertexID, net.NumVertices())
	for i := range vs {
		vs[i] = VertexID(i)
	}
	objs, err := NewObjectSet(paged.Network(), vs)
	if err != nil {
		t.Fatal(err)
	}
	return paged, objs
}

// TestMetricsColdScanCounts runs a deterministic sequential cold scan and
// checks the triple equality the observability layer promises: per-query
// stats sum to the pool-wide aggregates, and both match the folded
// Prometheus counters — with every storage counter (hits, misses, reads,
// evictions, decodes) nonzero under pressure. A second pass runs the same
// queries again: its sums must agree just the same, and it must decode
// exactly as many blocks, because a lookup decodes the same blocks however
// often its run was read before.
func TestMetricsColdScanCounts(t *testing.T) {
	eng, objs := pagedTestEngine(t)
	pool := eng.qx.Pool()
	m := eng.obs

	var total QueryStats
	var decodedPerPass [2]int64
	const queries = 40
	for pass := range decodedPerPass {
		base := pool.Stats()
		baseReads := eng.pager.ReadStats()
		var sum QueryStats
		for q := 0; q < queries; q++ {
			res, err := eng.Query(context.Background(), objs, VertexID(q*6), 5)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			sum.PageHits += s.PageHits
			sum.PageMisses += s.PageMisses
			sum.PageReads += s.PageReads
			sum.Evictions += s.Evictions
			sum.BlocksDecoded += s.BlocksDecoded
		}
		decodedPerPass[pass] = sum.BlocksDecoded

		// Under a 5% pool every counter must have moved.
		if sum.PageMisses == 0 || sum.PageReads == 0 || sum.BlocksDecoded == 0 || sum.Evictions == 0 {
			t.Fatalf("pass %d: cold scan left counters at zero: %+v", pass, sum)
		}

		// Per-query sums == pool-wide deltas (the statsum invariant surfaced
		// through the engine).
		agg := pool.Stats()
		if got := agg.Hits - base.Hits; got != sum.PageHits {
			t.Errorf("pass %d: pool hits delta %d != per-query sum %d", pass, got, sum.PageHits)
		}
		if got := agg.Misses - base.Misses; got != sum.PageMisses {
			t.Errorf("pass %d: pool misses delta %d != per-query sum %d", pass, got, sum.PageMisses)
		}
		if got := agg.Evictions - base.Evictions; got != sum.Evictions {
			t.Errorf("pass %d: pool evictions delta %d != per-query sum %d", pass, got, sum.Evictions)
		}
		reads := eng.pager.ReadStats()
		if got := reads.Reads - baseReads.Reads; got != sum.PageReads {
			t.Errorf("pass %d: pager reads delta %d != per-query sum %d", pass, got, sum.PageReads)
		}
		if got := reads.BlocksDecoded - baseReads.BlocksDecoded; got != sum.BlocksDecoded {
			t.Errorf("pass %d: pager decodes delta %d != per-query sum %d", pass, got, sum.BlocksDecoded)
		}
		total.PageHits += sum.PageHits
		total.PageMisses += sum.PageMisses
		total.PageReads += sum.PageReads
		total.Evictions += sum.Evictions
		total.BlocksDecoded += sum.BlocksDecoded

		// The folded Prometheus counters saw exactly the query-attributed
		// traffic (they start at zero on a fresh engine).
		if got, want := m.queries[opKNN].Value(), int64(queries*(pass+1)); got != want {
			t.Errorf("queries_total{op=knn} = %d, want %d", got, want)
		}
		if got, want := m.latency[opKNN].Count(), int64(queries*(pass+1)); got != want {
			t.Errorf("query_seconds count = %d, want %d", got, want)
		}
		for _, c := range []struct {
			name string
			got  int64
			want int64
		}{
			{"page_hits", m.pageHits.Value(), total.PageHits},
			{"page_misses", m.pageMisses.Value(), total.PageMisses},
			{"page_reads", m.pageReads.Value(), total.PageReads},
			{"evictions", m.evictions.Value(), total.Evictions},
			{"blocks_decoded", m.blocksDecoded.Value(), total.BlocksDecoded},
		} {
			if c.got != c.want {
				t.Errorf("pass %d: folded %s = %d, want %d", pass, c.name, c.got, c.want)
			}
		}
	}
	t.Logf("blocks decoded per pass: %v", decodedPerPass)
	if decodedPerPass[1] != decodedPerPass[0] {
		t.Errorf("blocks decoded per pass %v: the second pass must decode as many as the first", decodedPerPass)
	}
}

// TestShardedPagedIOStatsSum is the regression test for the IOStats doc
// fix: on a sharded paged engine one pool and one pager serve every cell
// store, so per-query stats must still sum to the engine-wide aggregates
// — and ResetIOStats must zero the read counters of ALL cell stores.
func TestShardedPagedIOStatsSum(t *testing.T) {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := Build(net, BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var pg bytes.Buffer
	if _, err := sx.WritePaged(&pg); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenEngineAt(bytes.NewReader(pg.Bytes()), int64(pg.Len()), nil, BuildOptions{CacheFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	eng.ResetIOStats()

	vs := make([]VertexID, net.NumVertices())
	for i := range vs {
		vs[i] = VertexID(i)
	}
	objs, err := NewObjectSet(eng.Network(), vs)
	if err != nil {
		t.Fatal(err)
	}

	var sum QueryStats
	const queries = 30
	for q := 0; q < queries; q++ {
		res, err := eng.Query(context.Background(), objs, VertexID(q*4), 4)
		if err != nil {
			t.Fatal(err)
		}
		sum.PageHits += res.Stats.PageHits
		sum.PageMisses += res.Stats.PageMisses
		sum.PageReads += res.Stats.PageReads
	}
	if sum.PageMisses == 0 || sum.PageReads == 0 {
		t.Fatalf("sharded cold scan recorded no page traffic: %+v", sum)
	}
	io := eng.IOStats()
	if io.PageHits != sum.PageHits || io.PageMisses != sum.PageMisses {
		t.Errorf("IOStats pool {hits %d misses %d} != per-query sums {%d %d}",
			io.PageHits, io.PageMisses, sum.PageHits, sum.PageMisses)
	}
	if io.PageReads != sum.PageReads {
		t.Errorf("IOStats reads %d (all cell stores) != per-query sum %d", io.PageReads, sum.PageReads)
	}

	// ResetIOStats zeroes the pool and every cell store's read counters.
	eng.ResetIOStats()
	if after := eng.IOStats(); after.PageHits != 0 || after.PageMisses != 0 || after.PageReads != 0 {
		t.Errorf("ResetIOStats left counters: %+v", after)
	}
	// The monotone Prometheus counters survive the reset.
	if eng.obs.pageMisses.Value() == 0 {
		t.Error("Prometheus miss counter was reset alongside IOStats")
	}
}

// TestIndexResetIOStatsCoversPager is the regression test for the old
// Index.ResetIOStats inconsistency: it used to reset only the pool counters,
// leaving the pager's read counters running.
func TestIndexResetIOStatsCoversPager(t *testing.T) {
	net, err := GenerateGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var pg bytes.Buffer
	if _, err := ix.WritePaged(&pg); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenEngineAt(bytes.NewReader(pg.Bytes()), int64(pg.Len()), nil, BuildOptions{CacheFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	vs := []VertexID{0, 5, 9, 20, 33}
	objs, err := NewObjectSet(eng.Network(), vs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(context.Background(), objs, 7, 3); err != nil {
		t.Fatal(err)
	}
	if eng.IOStats().PageReads == 0 {
		t.Fatal("cold query performed no reads; test is vacuous")
	}
	eng.ResetIOStats()
	if after := eng.IOStats(); after.PageReads != 0 || after.PageMisses != 0 {
		t.Fatalf("Index.ResetIOStats left pager/pool counters: %+v", after)
	}
}

// TestBaselinesLeaveThePoolAlone: INE and IER expand the resident network
// and read no page, so on a warm 5%-pool engine they report no page
// traffic, move none of the pool's counters, and evict no real frame — a
// repeated kNN query after them reads exactly the pages it reads when
// repeated on a twin engine that never ran them.
func TestBaselinesLeaveThePoolAlone(t *testing.T) {
	ctx := context.Background()
	eng, objs := pagedTestEngine(t)
	twin, _ := pagedTestEngine(t)
	n := eng.Network().NumVertices()
	const probe = 100
	knn := func(e *Engine, q int) QueryStats {
		t.Helper()
		res, err := e.Query(ctx, objs, VertexID(q), 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	for _, e := range []*Engine{eng, twin} {
		for q := 0; q < n; q += 7 {
			knn(e, q)
		}
		knn(e, probe)
	}
	before := eng.IOStats()
	if before.PageMisses == 0 {
		t.Fatal("the warm-up read no page; the test is vacuous")
	}
	for q := 3; q < n; q += 11 {
		for _, m := range []Method{MethodINE, MethodIER} {
			res, err := eng.Query(ctx, objs, VertexID(q), 20, WithMethod(m))
			if err != nil {
				t.Fatal(err)
			}
			if s := res.Stats; s.PageMisses != 0 || s.PageHits != 0 || s.PageReads != 0 {
				t.Fatalf("%s at %d charged pages: %d hits, %d misses, %d reads", s.Method, q, s.PageHits, s.PageMisses, s.PageReads)
			}
		}
	}
	if after := eng.IOStats(); after.PageHits != before.PageHits || after.PageMisses != before.PageMisses || after.PageReads != before.PageReads {
		t.Fatalf("the baselines moved the pool: %+v before, %+v after", before, after)
	}
	if got, want := knn(eng, probe), knn(twin, probe); got.PageReads != want.PageReads || got.PageHits != want.PageHits {
		t.Fatalf("kNN at %d repeated after the baselines: %d reads, %d hits; repeated on the twin that never ran them: %d and %d",
			probe, got.PageReads, got.PageHits, want.PageReads, want.PageHits)
	}
}

// TestWriteMetricsFamilies scrapes a loaded engine and checks the
// exposition is populated and well-formed at the family level.
func TestWriteMetricsFamilies(t *testing.T) {
	eng, objs := pagedTestEngine(t)
	eng.SetTracing(true)
	ctx := context.Background()
	for q := 0; q < 10; q++ {
		if _, err := eng.Query(ctx, objs, VertexID(q*17), 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Distance(ctx, 3, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WithinDistance(ctx, objs, 9, 2.0); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := eng.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`silc_engine_queries_total{op="knn"} 10`,
		`silc_engine_queries_total{op="distance"} 1`,
		`silc_engine_queries_total{op="range"} 1`,
		`silc_engine_query_seconds_count{op="knn"} 10`,
		"silc_knn_refinements_total",
		"silc_knn_filter_seconds_total",
		"silc_diskio_pool_hits_total",
		"silc_diskio_pool_resident_pages",
		`silc_store_page_reads_total{store="0",source="mmapcopy"}`,
		"silc_engine_inflight_queries 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteMetrics missing %q", want)
		}
	}
	for _, fam := range []string{
		"silc_engine_queries_total", "silc_engine_query_seconds",
		"silc_diskio_pool_hits_total", "silc_store_page_reads_total",
	} {
		if n := strings.Count(out, "# TYPE "+fam+" "); n != 1 {
			t.Errorf("family %s has %d TYPE headers, want 1", fam, n)
		}
	}
	// A second scrape must not re-register the dynamic series.
	var b2 bytes.Buffer
	if err := eng.WriteMetrics(&b2); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b2.String(), `silc_store_page_reads_total{store="0",source="mmapcopy"}`); n != 1 {
		t.Errorf("store series appears %d times after second scrape, want 1", n)
	}
}

// TestRangeCountersReconcile: a range query runs on the best-first engine,
// so its counters add up like a kNN's. On monolithic and sharded engines
// with tracing on, over a 30%-density object set, a burst of WithinDistance
// calls moves silc_knn_lookups_total by exactly the results' Σ Lookups,
// every result counts a heap push for the root and one for each object it
// reports, and the filter phase has a clock.
func TestRangeCountersReconcile(t *testing.T) {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 16, Cols: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(net, BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := net.NumVertices()
	rng := rand.New(rand.NewSource(8))
	var vs []VertexID
	for _, v := range rng.Perm(n)[:n*3/10] {
		vs = append(vs, VertexID(v))
	}
	for _, c := range []struct {
		name string
		eng  *Engine
	}{{"monolithic", mono}, {"sharded", sharded}} {
		name, eng := c.name, c.eng
		eng.SetTracing(true)
		objs, err := NewObjectSet(eng.Network(), vs)
		if err != nil {
			t.Fatal(err)
		}
		before := eng.obs.lookups.Value()
		var lookups, reported int64
		var filter time.Duration
		for i := 0; i < 40; i++ {
			res, err := eng.WithinDistance(context.Background(), objs, VertexID(rng.Intn(n)), rng.Float64()/2)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.HeapPushes < int64(len(res.Neighbors))+1 {
				t.Errorf("%s query %d: %d heap pushes for %d reported objects", name, i, res.Stats.HeapPushes, len(res.Neighbors))
			}
			lookups += int64(res.Stats.Lookups)
			reported += int64(len(res.Neighbors))
			filter += res.Stats.FilterTime
		}
		if got := eng.obs.lookups.Value() - before; got != lookups || lookups == 0 {
			t.Errorf("%s: silc_knn_lookups_total moved by %d, Σ Stats.Lookups %d", name, got, lookups)
		}
		if filter <= 0 || reported == 0 {
			t.Errorf("%s: Σ FilterTime %v over %d reported objects", name, filter, reported)
		}
	}
}

// TestStatsOptionOnScalarQueries covers the new WithStats support on
// Distance, DistanceInterval, and ShortestPath.
func TestStatsOptionOnScalarQueries(t *testing.T) {
	net, err := GenerateGrid(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetTracing(true)
	ctx := context.Background()

	var st QueryStats
	if _, err := eng.Distance(ctx, 0, 87, WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Method != "DISTANCE" || st.Refinements == 0 || st.CPUTime <= 0 {
		t.Errorf("Distance stats not filled: %+v", st)
	}

	st = QueryStats{}
	if _, err := eng.DistanceInterval(ctx, 0, 87, WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Method != "INTERVAL" || st.CPUTime <= 0 {
		t.Errorf("DistanceInterval stats not filled: %+v", st)
	}
	if st.Refinements != 0 {
		t.Errorf("DistanceInterval should not refine, got %d steps", st.Refinements)
	}

	// Monolithic path retrieval follows quadtree colors hop by hop — no
	// refiner steps — so only the method tag and clock are asserted.
	st = QueryStats{}
	if _, err := eng.ShortestPath(ctx, 0, 87, WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Method != "PATH" || st.CPUTime <= 0 {
		t.Errorf("ShortestPath stats not filled: %+v", st)
	}
	if eng.obs.queries[opPath].Value() != 1 || eng.obs.queries[opInterval].Value() != 1 {
		t.Error("per-op counters did not advance for path/interval")
	}
}

// TestBatchFoldsMetrics checks that batch workers — whose contexts bypass
// the engine pool — still fold their spans into the op="batch" series.
func TestBatchFoldsMetrics(t *testing.T) {
	eng, objs := pagedTestEngine(t)
	queries := make([]VertexID, 20)
	for i := range queries {
		queries[i] = VertexID(i * 11)
	}
	br, err := eng.QueryBatch(context.Background(), objs, queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("batch returned %d results", len(br.Results))
	}
	if got := eng.obs.queries[opBatch].Value(); got != int64(len(queries)) {
		t.Errorf("queries_total{op=batch} = %d, want %d", got, len(queries))
	}
	if got := eng.obs.latency[opBatch].Count(); got != int64(len(queries)) {
		t.Errorf("batch latency count = %d, want %d", got, len(queries))
	}
	// The per-query page traffic folded into the engine counters too.
	var sum int64
	for _, r := range br.Results {
		sum += r.Stats.PageMisses
	}
	if sum == 0 {
		t.Fatal("batch cold scan missed nothing; test is vacuous")
	}
	if got := eng.obs.pageMisses.Value(); got != sum {
		t.Errorf("folded misses %d != batch per-query sum %d", got, sum)
	}
}

// TestStoreSourceLabel pins the source label of the silc_store_* series for
// each way an image is opened: a ReaderAt is "readat" whatever it reads, a
// and a file opened by path copies missed pages out of its mapping
// ("mmapcopy"). Every cell store of a sharded image carries its engine's
// label.
func TestStoreSourceLabel(t *testing.T) {
	net, err := GenerateGrid(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, parts := range []int{1, 4} {
		built, err := Build(net, BuildOptions{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "image"+itoa(parts))
		if _, err := built.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		opens := []struct {
			name, source string
			open         func() (*Engine, error)
		}{
			{"OpenEngineAt/bytes", "readat", func() (*Engine, error) {
				return OpenEngineAt(bytes.NewReader(img), int64(len(img)), nil, BuildOptions{})
			}},
			{"OpenEngineAt/file", "readat", func() (*Engine, error) {
				return OpenEngineAt(fh, int64(len(img)), nil, BuildOptions{})
			}},
			{"OpenEngine", "mmapcopy", func() (*Engine, error) { return OpenEngine(path, nil, BuildOptions{}) }},
		}
		for _, o := range opens {
			t.Run(o.name+"/P="+itoa(parts), func(t *testing.T) {
				eng, err := o.open()
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				var b bytes.Buffer
				if err := eng.WriteMetrics(&b); err != nil {
					t.Fatal(err)
				}
				out := b.String()
				for i := range parts {
					want := `silc_store_page_reads_total{store="` + itoa(i) + `",source="` + o.source + `"}`
					if !strings.Contains(out, want) {
						t.Errorf("missing %s", want)
					}
				}
				if n := strings.Count(out, `source="`+o.source+`"`); n != strings.Count(out, `source="`) {
					t.Errorf("%d of %d store series carry source=%q", n, strings.Count(out, `source="`), o.source)
				}
			})
		}
	}
}
