package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"silc"
	"silc/internal/server"
	"silc/internal/testkit"
)

// testServer serves a disk-resident index: written under t.TempDir() and
// reopened behind the default 5% pool, so page counters are real reads.
func testServer(t *testing.T) server.Config {
	t.Helper()
	net, err := silc.GenerateGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	built, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.silcpg")
	if _, err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ix, err := silc.OpenEngine(path, nil, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	vs := make([]silc.VertexID, net.NumVertices())
	for i := range vs {
		vs[i] = silc.VertexID(i)
	}
	return server.Config{Engine: ix, Objects: mustObjects(t, net, vs), MaxK: 100, MaxBatch: 1000}
}

// routes is the handler silcserve serves c behind.
func routes(c server.Config) http.Handler { return server.New(c).Handler() }

func mustObjects(t *testing.T, net *silc.Network, vs []silc.VertexID) *silc.ObjectSet {
	t.Helper()
	objs, err := silc.NewObjectSet(net, vs)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
	return resp
}

func TestServerEndpoints(t *testing.T) {
	ts := httptest.NewServer(routes(testServer(t)))
	defer ts.Close()

	var knn struct {
		Neighbors []struct {
			Vertex int64   `json:"vertex"`
			Dist   float64 `json:"dist"`
			Exact  bool    `json:"exact"`
		} `json:"neighbors"`
		Stats struct {
			Method string `json:"method"`
		} `json:"stats"`
	}
	if resp := getJSON(t, ts, "/knn?q=0&k=3", &knn); resp.StatusCode != 200 {
		t.Fatalf("/knn status %d", resp.StatusCode)
	}
	if len(knn.Neighbors) != 3 || knn.Stats.Method != "KNN" {
		t.Fatalf("knn response: %+v", knn)
	}
	if knn.Neighbors[0].Dist != 0 {
		t.Fatalf("nearest to an object-bearing vertex should be distance 0: %+v", knn.Neighbors[0])
	}

	var dist struct {
		Reachable bool    `json:"reachable"`
		Distance  float64 `json:"distance"`
	}
	getJSON(t, ts, "/distance?src=0&dst=63", &dist)
	if !dist.Reachable || dist.Distance <= 0 {
		t.Fatalf("distance response: %+v", dist)
	}

	var path struct {
		Reachable bool    `json:"reachable"`
		Distance  float64 `json:"distance"`
		Path      []int64 `json:"path"`
	}
	getJSON(t, ts, "/path?src=0&dst=63", &path)
	if !path.Reachable || len(path.Path) < 2 || path.Path[0] != 0 || path.Path[len(path.Path)-1] != 63 {
		t.Fatalf("path response: %+v", path)
	}
	if path.Distance != dist.Distance {
		t.Fatalf("path distance %v != distance %v", path.Distance, dist.Distance)
	}

	var rng struct {
		Count     int `json:"count"`
		Neighbors []struct {
			Dist float64 `json:"dist"`
		} `json:"neighbors"`
	}
	getJSON(t, ts, "/range?q=0&radius=0.3", &rng)
	if rng.Count == 0 || rng.Count != len(rng.Neighbors) {
		t.Fatalf("range response: %+v", rng)
	}

	var stats struct {
		Index struct {
			Vertices int `json:"vertices"`
		} `json:"index"`
		Pool struct {
			PageMisses int64 `json:"page_misses"`
			PageReads  int64 `json:"page_reads"`
			MeasuredUS int64 `json:"measured_io_time_us"`
		} `json:"pool"`
		Server struct {
			Requests int64 `json:"requests"`
			Queries  int64 `json:"queries"`
		} `json:"server"`
	}
	getJSON(t, ts, "/stats", &stats)
	if stats.Index.Vertices != 64 {
		t.Fatalf("stats vertices = %d", stats.Index.Vertices)
	}
	if stats.Server.Queries < 4 {
		t.Fatalf("stats queries = %d", stats.Server.Queries)
	}
	if stats.Pool.PageMisses == 0 || stats.Pool.PageReads == 0 || stats.Pool.MeasuredUS < 0 {
		t.Fatalf("disk-resident server reported no real page traffic: %+v", stats.Pool)
	}

	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != 200 {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
}

func TestServerBadRequests(t *testing.T) {
	ts := httptest.NewServer(routes(testServer(t)))
	defer ts.Close()
	for _, path := range []string{
		"/knn?q=0",                 // missing k
		"/knn?q=9999&k=3",          // vertex out of range
		"/knn?q=0&k=0",             // bad k
		"/knn?q=0&k=3&method=WARP", // unknown method
		"/distance?src=0",          // missing dst
		"/range?q=0&radius=-1",
	} {
		resp := getJSON(t, ts, path, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestServerBatchKNN(t *testing.T) {
	ts := httptest.NewServer(routes(testServer(t)))
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"queries": []int64{0, 7, 21, 63},
		"k":       2,
		"method":  "KNN",
	})
	resp, err := ts.Client().Post(ts.URL+"/knn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Results []struct {
			Query     int64 `json:"query"`
			Neighbors []struct {
				Dist float64 `json:"dist"`
			} `json:"neighbors"`
		} `json:"results"`
		Batch struct {
			Queries int     `json:"queries"`
			Workers int     `json:"workers"`
			QPS     float64 `json:"qps"`
		} `json:"batch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 || out.Batch.Queries != 4 || out.Batch.Workers < 1 || out.Batch.QPS <= 0 {
		t.Fatalf("batch response: %+v", out)
	}
	for i, r := range out.Results {
		if len(r.Neighbors) != 2 {
			t.Fatalf("result %d: %+v", i, r)
		}
		if r.Neighbors[0].Dist != 0 {
			t.Fatalf("result %d should start at its own vertex: %+v", i, r)
		}
	}
}

// TestServerConcurrentRequests hammers one shared disk-resident index from
// many goroutines; run under -race this is the serving-layer concurrency
// check.
func TestServerConcurrentRequests(t *testing.T) {
	ts := httptest.NewServer(routes(testServer(t)))
	defer ts.Close()

	paths := []string{
		"/knn?q=5&k=4",
		"/knn?q=40&k=2&method=INN",
		"/distance?src=3&dst=60",
		"/path?src=9&dst=54",
		"/range?q=30&radius=0.25",
		"/stats",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := ts.Client().Get(ts.URL + paths[(w+i)%len(paths)])
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// testShardedServer builds a server over a sharded engine, exercising the
// Engine-generic serving path.
func testShardedServer(t *testing.T) server.Config {
	t.Helper()
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 10, Cols: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	built, err := silc.Build(net, silc.BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "road.silcspg")
	if _, err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ix, err := silc.OpenEngine(path, nil, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	vs := make([]silc.VertexID, net.NumVertices())
	for i := range vs {
		vs[i] = silc.VertexID(i)
	}
	return server.Config{Engine: ix, Objects: mustObjects(t, net, vs), MaxK: 100, MaxBatch: 1000}
}

func decodeBrowseStream(t *testing.T, ts *httptest.Server, path string) (ranks []int, dists []float64, trailer map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("%s: content type %q", path, ct)
	}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
		if done, _ := line["done"].(bool); done {
			trailer = line
			break
		}
		ranks = append(ranks, int(line["rank"].(float64)))
		dists = append(dists, line["dist"].(float64))
	}
	return ranks, dists, trailer
}

func TestServerBrowseStreaming(t *testing.T) {
	for name, srv := range map[string]server.Config{
		"monolithic": testServer(t),
		"sharded":    testShardedServer(t),
	} {
		ts := httptest.NewServer(routes(srv))
		ranks, dists, trailer := decodeBrowseStream(t, ts, "/browse?src=0&n=7")
		if len(ranks) != 7 {
			t.Fatalf("%s: streamed %d neighbors, want 7", name, len(ranks))
		}
		for i := range ranks {
			if ranks[i] != i+1 {
				t.Fatalf("%s: rank %d at position %d", name, ranks[i], i)
			}
			if i > 0 && dists[i] < dists[i-1] {
				t.Fatalf("%s: distances not ascending: %v", name, dists)
			}
		}
		if trailer == nil || trailer["streamed"].(float64) != 7 {
			t.Fatalf("%s: bad trailer %v", name, trailer)
		}
		if st, ok := trailer["stats"].(map[string]any); !ok || st["lookups"].(float64) == 0 {
			t.Fatalf("%s: trailer missing cursor stats: %v", name, trailer)
		}
		// Exhausting the object set ends the stream early with the trailer.
		nv := srv.Engine.Network().NumVertices()
		ranks, _, trailer = decodeBrowseStream(t, ts, "/browse?src=1&n=100")
		if len(ranks) != nv || trailer == nil {
			t.Fatalf("%s: exhausted stream returned %d of %d objects (trailer %v)", name, len(ranks), nv, trailer)
		}
		// Parameter validation.
		if resp := getJSON(t, ts, "/browse?src=-1&n=3", nil); resp.StatusCode != 400 {
			t.Fatalf("%s: bad src got status %d", name, resp.StatusCode)
		}
		if resp := getJSON(t, ts, "/browse?src=0&n=0", nil); resp.StatusCode != 400 {
			t.Fatalf("%s: n=0 got status %d", name, resp.StatusCode)
		}
		ts.Close()
	}
}

// TestServerEpsilonParam exercises the ε-approximate knob over HTTP on
// /knn, /browse, /distance and /range: valid values answer with
// certified-approximate distances, bad values (NaN, negative, infinite,
// unparsable) are 400s.
func TestServerEpsilonParam(t *testing.T) {
	ts := httptest.NewServer(routes(testServer(t)))
	defer ts.Close()

	var knn struct {
		Neighbors []struct {
			Dist  float64 `json:"dist"`
			Exact bool    `json:"exact"`
		} `json:"neighbors"`
	}
	if resp := getJSON(t, ts, "/knn?q=5&k=4&eps=0.5", &knn); resp.StatusCode != 200 {
		t.Fatalf("/knn eps status %d", resp.StatusCode)
	}
	if len(knn.Neighbors) != 4 {
		t.Fatalf("eps knn: %+v", knn)
	}
	bad := []string{"/knn?q=5&k=4&eps=-1", "/knn?q=5&k=4&eps=nope", "/browse?src=0&eps=-2"}
	for _, eps := range []string{"NaN", "-1", "%2BInf", "abc"} {
		bad = append(bad, "/distance?src=3&dst=60&eps="+eps, "/range?q=9&radius=0.3&eps="+eps)
	}
	for _, path := range bad {
		if resp := getJSON(t, ts, path, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/distance?src=3&dst=60&eps=0.1", "/range?q=9&radius=0.3&eps=0.1"} {
		if resp := getJSON(t, ts, path, nil); resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	ranks, _, trailer := decodeBrowseStream(t, ts, "/browse?src=0&n=5&eps=0.5")
	if len(ranks) != 5 || trailer == nil {
		t.Fatalf("eps browse: %d ranks, trailer %v", len(ranks), trailer)
	}
}

// TestServerRequestTimeout sets a deadline that has to fire before any
// query completes: handlers must answer 503 (and /browse must end its
// stream) rather than hang or serve a stale result.
func TestServerRequestTimeout(t *testing.T) {
	srv := testServer(t)
	srv.Timeout = time.Nanosecond
	ts := httptest.NewServer(routes(srv))
	defer ts.Close()

	for _, path := range []string{"/knn?q=5&k=4", "/distance?src=0&dst=63", "/range?q=0&radius=0.4"} {
		resp := getJSON(t, ts, path, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, resp.StatusCode)
		}
	}
	// The browse stream reports the deadline as its terminating line.
	resp, err := ts.Client().Get(ts.URL + "/browse?src=0&n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var last map[string]any
	for dec.More() {
		last = nil
		if err := dec.Decode(&last); err != nil {
			t.Fatal(err)
		}
	}
	if last == nil || last["error"] == nil {
		t.Fatalf("browse under timeout ended with %v, want error line", last)
	}
}

func TestServerShardedEndpoints(t *testing.T) {
	ts := httptest.NewServer(routes(testShardedServer(t)))
	defer ts.Close()
	var dist struct {
		Reachable bool    `json:"reachable"`
		Distance  float64 `json:"distance"`
	}
	if resp := getJSON(t, ts, "/distance?src=0&dst=50", &dist); resp.StatusCode != 200 || !dist.Reachable {
		t.Fatalf("sharded /distance failed: %d %+v", resp.StatusCode, dist)
	}
	var stats struct {
		Index map[string]any `json:"index"`
	}
	if resp := getJSON(t, ts, "/stats", &stats); resp.StatusCode != 200 {
		t.Fatalf("sharded /stats status %d", resp.StatusCode)
	}
	if stats.Index["partitions"].(float64) != 4 {
		t.Fatalf("sharded /stats reports %v partitions", stats.Index["partitions"])
	}
	var knn struct {
		Neighbors []struct {
			Dist float64 `json:"dist"`
		} `json:"neighbors"`
	}
	if resp := getJSON(t, ts, "/knn?q=3&k=4", &knn); resp.StatusCode != 200 || len(knn.Neighbors) != 4 {
		t.Fatalf("sharded /knn failed: %d %+v", resp.StatusCode, knn)
	}
}

// scrapeMetrics drives a few queries through the server and returns the
// /metrics body.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	for _, path := range []string{"/knn?q=3&k=4", "/distance?src=0&dst=9", "/range?q=5&radius=4", "/browse?src=2&n=3"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestServerMetrics(t *testing.T) {
	srv := testServer(t)
	srv.Engine.SetTracing(true)
	ts := httptest.NewServer(routes(srv))
	defer ts.Close()
	out := scrapeMetrics(t, ts)

	// Engine, knn, diskio, store, and server families must all be
	// populated after real traffic on a disk-resident index.
	for _, want := range []string{
		`silc_engine_queries_total{op="knn"}`,
		`silc_engine_query_seconds_bucket{op="knn",le="+Inf"}`,
		`silc_engine_query_seconds_count{op="distance"}`,
		"silc_knn_refinements_total",
		"silc_knn_lookups_total",
		"silc_knn_heap_pushes_total",
		"silc_diskio_pool_hits_total",
		"silc_diskio_pool_capacity_pages",
		"silc_diskio_pool_resident_pages",
		`silcserve_requests_total{endpoint="/knn"}`,
		`silcserve_request_seconds_bucket{endpoint="/knn"`,
		"silcserve_inflight_requests",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Each family header must appear exactly once even with many series.
	for _, fam := range []string{"silc_engine_queries_total", "silc_diskio_pool_hits_total", "silcserve_requests_total"} {
		if n := strings.Count(out, "# TYPE "+fam+" "); n != 1 {
			t.Errorf("family %s has %d TYPE headers, want 1", fam, n)
		}
	}
	// Non-trivial values: the knn query counter must have advanced.
	var knnQueries float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `silc_engine_queries_total{op="knn"} `) {
			fmt.Sscanf(line, `silc_engine_queries_total{op="knn"} %f`, &knnQueries)
		}
	}
	if knnQueries < 1 {
		t.Errorf("silc_engine_queries_total{op=\"knn\"} = %v, want >= 1", knnQueries)
	}
}

// TestServerMetricNamesPinned checks the series shapes (family names and
// label keys, not values) of /metrics on a paged server after a little
// traffic against a list, so every change to the served metric surface is
// made on purpose and shows in this file.
func TestServerMetricNamesPinned(t *testing.T) {
	ts := httptest.NewServer(routes(testServer(t)))
	defer ts.Close()
	got := testkit.MetricNames(scrapeMetrics(t, ts))
	if !slices.Equal(got, serverMetricNames) {
		var list strings.Builder
		for _, n := range got {
			fmt.Fprintf(&list, "\t%q,\n", n)
		}
		t.Fatalf("the /metrics series changed; if that is intended, pin the new list:\n%s", list.String())
	}
}

var serverMetricNames = []string{
	"silc_diskio_pool_capacity_pages",
	"silc_diskio_pool_evictions_total",
	"silc_diskio_pool_hits_total",
	"silc_diskio_pool_misses_total",
	"silc_diskio_pool_resident_pages",
	"silc_engine_blocks_decoded_total",
	"silc_engine_inflight_queries",
	"silc_engine_page_hits_total",
	"silc_engine_page_misses_total",
	"silc_engine_page_reads_total",
	"silc_engine_pool_evictions_total",
	"silc_engine_queries_total{op}",
	"silc_engine_query_seconds_bucket{op,le}",
	"silc_engine_query_seconds_count{op}",
	"silc_engine_query_seconds_sum{op}",
	"silc_knn_filter_seconds_total",
	"silc_knn_heap_pushes_total",
	"silc_knn_lookups_total",
	"silc_knn_refine_seconds_total",
	"silc_knn_refinements_total",
	"silc_partition_cross_cell_refiners_total",
	"silc_partition_gateway_routes_total",
	"silc_partition_label_hits_total",
	"silc_partition_label_misses_total",
	"silc_partition_label_rows",
	"silc_partition_race_hinted_total",
	"silc_partition_race_used_total",
	"silc_store_blocks_decoded_total{source}",
	"silc_store_page_reads_total{source}",
	"silc_store_read_seconds_total{source}",
	"silcserve_inflight_requests",
	"silcserve_request_seconds_bucket{endpoint,le}",
	"silcserve_request_seconds_count{endpoint}",
	"silcserve_request_seconds_sum{endpoint}",
	"silcserve_requests_total{endpoint}",
}

// TestServerMetricsPaged checks the pool-wide silc_store_* families that
// only a paged (SILCPG) engine registers: one series each, labelled by
// page source only.
func TestServerMetricsPaged(t *testing.T) {
	dir := t.TempDir()
	net, err := silc.GenerateGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/idx.pg"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WritePaged(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	eng, err := silc.OpenEngine(path, nil, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]silc.VertexID, net.NumVertices())
	for i := range vs {
		vs[i] = silc.VertexID(i)
	}
	srv := server.Config{Engine: eng, Objects: mustObjects(t, eng.Network(), vs), MaxK: 100, MaxBatch: 1000}
	ts := httptest.NewServer(routes(srv))
	defer ts.Close()
	out := scrapeMetrics(t, ts)
	for _, want := range []string{
		`silc_store_page_reads_total{source="mmapcopy"}`,
		`silc_store_blocks_decoded_total{source="mmapcopy"}`,
		`silc_store_read_seconds_total{source="mmapcopy"}`,
		"silc_engine_page_reads_total",
		"silc_engine_blocks_decoded_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("paged /metrics missing %q", want)
		}
	}
}

func TestServerSlowLog(t *testing.T) {
	srv := testServer(t)
	srv.Engine.SetTracing(true)
	logPath := t.TempDir() + "/slow.ndjson"
	slow, err := server.OpenSlowLog(logPath, 0) // threshold 0: log everything
	if err != nil {
		t.Fatal(err)
	}
	srv.SlowLog = slow
	ts := httptest.NewServer(routes(srv))
	for _, path := range []string{"/knn?q=3&k=4", "/distance?src=0&dst=9"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	ts.Close()
	slow.Close()

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("slowlog has %d entries, want 2:\n%s", len(lines), data)
	}
	sawKNN := false
	for _, line := range lines {
		var entry struct {
			TS         string `json:"ts"`
			Endpoint   string `json:"endpoint"`
			Method     string `json:"method"`
			Query      string `json:"query"`
			DurationUS *int64 `json:"duration_us"`
			Stats      *struct {
				Method      string `json:"method"`
				Refinements int    `json:"refinements"`
				PageMisses  int64  `json:"page_misses"`
				PageReads   int64  `json:"page_reads"`
			} `json:"stats"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("slowlog line is not valid JSON: %v\n%s", err, line)
		}
		if entry.TS == "" || entry.Endpoint == "" || entry.DurationUS == nil {
			t.Fatalf("slowlog entry missing fields: %s", line)
		}
		if entry.Endpoint == "/knn" {
			sawKNN = true
			if entry.Stats == nil || entry.Stats.Method == "" {
				t.Fatalf("knn slowlog entry missing query stats: %s", line)
			}
			if entry.Query != "q=3&k=4" {
				t.Fatalf("knn slowlog entry query = %q", entry.Query)
			}
			// The first query on a cold disk-resident server must miss,
			// and the entry carries the real reads behind the misses.
			if entry.Stats.PageMisses == 0 || entry.Stats.PageReads == 0 {
				t.Fatalf("knn slowlog entry carries no page traffic: %s", line)
			}
		}
	}
	if !sawKNN {
		t.Fatalf("no /knn entry in slowlog:\n%s", data)
	}
}

func TestServerStatsEndpointLatency(t *testing.T) {
	ts := httptest.NewServer(routes(testServer(t)))
	defer ts.Close()
	for i := 0; i < 5; i++ {
		resp, err := ts.Client().Get(ts.URL + "/knn?q=3&k=4")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var stats struct {
		Server struct {
			Requests  int64 `json:"requests"`
			Tracing   bool  `json:"tracing"`
			Endpoints map[string]struct {
				Requests int64 `json:"requests"`
				P50US    int64 `json:"p50_us"`
				P99US    int64 `json:"p99_us"`
			} `json:"endpoints"`
		} `json:"server"`
	}
	if resp := getJSON(t, ts, "/stats", &stats); resp.StatusCode != 200 {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	ep, ok := stats.Server.Endpoints["/knn"]
	if !ok {
		t.Fatalf("/stats has no /knn endpoint block: %+v", stats.Server.Endpoints)
	}
	if ep.Requests != 5 {
		t.Fatalf("/knn endpoint requests = %d, want 5", ep.Requests)
	}
	if ep.P50US <= 0 || ep.P99US < ep.P50US {
		t.Fatalf("bad quantiles: p50=%d p99=%d", ep.P50US, ep.P99US)
	}
}

func TestServerPprofGate(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(routes(srv))
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("pprof served without -pprof: status %d", resp.StatusCode)
	}

	srv2 := testServer(t)
	srv2.Pprof = true
	ts2 := httptest.NewServer(routes(srv2))
	defer ts2.Close()
	resp2, err := ts2.Client().Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("pprof index with -pprof: status %d", resp2.StatusCode)
	}
}

// TestNodePprofGate: -pprof reaches the -cluster node mux too (it used to
// be mounted on the standalone/router mux only, so a node answered 404),
// and stays off without the flag; the RPC surface sits behind the same mux
// either way.
func TestNodePprofGate(t *testing.T) {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 10, Cols: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := silc.Build(net, silc.BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := &silc.ClusterManifest{Nodes: []silc.ClusterNodeSpec{
		{Name: "n", Addr: "http://placeholder", Cells: []int{0, 1, 2, 3}},
	}}
	node, err := silc.NewClusterNode(ix, m, "n")
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		ts := httptest.NewServer(routes(server.Config{Node: node, Pprof: on}))
		want := map[string]int{"/debug/pprof/": 404, "/debug/pprof/cmdline": 404, "/readyz": 200, "/metrics": 200}
		if on {
			want["/debug/pprof/"], want["/debug/pprof/cmdline"] = 200, 200
		}
		for path, status := range want {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != status {
				t.Errorf("pprof=%v: GET %s = %d, want %d", on, path, resp.StatusCode, status)
			}
		}
		ts.Close()
	}
}
