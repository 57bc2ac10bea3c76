package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"silc"
)

// gridConfig serves the disk-backed 8×8 grid — written to disk and
// reopened behind the default 5% pool — with an object on every vertex.
func gridConfig(t testing.TB) Config {
	t.Helper()
	net, err := silc.GenerateGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := diskEngine(t, net, silc.BuildOptions{}, "grid.silcpg")
	return Config{Engine: eng, Objects: everyVertex(t, net), MaxK: 100, MaxBatch: 1000}
}

// diskEngine builds net's index with opts, writes it to name under
// t.TempDir() and reopens it behind the default 5% pool.
func diskEngine(t testing.TB, net *silc.Network, opts silc.BuildOptions, name string) *silc.Engine {
	t.Helper()
	built, err := silc.Build(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if _, err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	eng, err := silc.OpenEngine(path, nil, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// liveGridConfig is gridConfig plus an empty live world.
func liveGridConfig(t testing.TB) Config {
	t.Helper()
	c := gridConfig(t)
	live, err := silc.NewLiveObjects(c.Engine.Network(), silc.LiveObjectsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)
	c.Live = live
	return c
}

// shardedConfig serves the 10×10 road map as a four-cell sharded index,
// written to disk and reopened, with an object on every vertex.
func shardedConfig(t testing.TB) Config {
	t.Helper()
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 10, Cols: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := diskEngine(t, net, silc.BuildOptions{Partitions: 4}, "road.silcspg")
	return Config{Engine: eng, Objects: everyVertex(t, net), MaxK: 100, MaxBatch: 1000}
}

func everyVertex(t testing.TB, net *silc.Network) *silc.ObjectSet {
	t.Helper()
	vs := make([]silc.VertexID, net.NumVertices())
	for i := range vs {
		vs[i] = silc.VertexID(i)
	}
	objs, err := silc.NewObjectSet(net, vs)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

// ramGridConfig serves an in-RAM 16×16 grid with an object on every fifth
// vertex.
func ramGridConfig(t testing.TB) Config {
	t.Helper()
	net, err := silc.GenerateGrid(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var vs []silc.VertexID
	for v := 0; v < net.NumVertices(); v += 5 {
		vs = append(vs, silc.VertexID(v))
	}
	objs, err := silc.NewObjectSet(net, vs)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Engine: ix, Objects: objs, MaxK: 100, MaxBatch: 1000}
}

// serve answers one request in process.
func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// TestServerRejectsWrappedIDs: an id or vertex beyond int32 is a 400. It
// used to wrap, and the server answered for the vertex or object it wrapped
// to while echoing the large number.
func TestServerRejectsWrappedIDs(t *testing.T) {
	for _, c := range []struct{ name, method, target, body string }{
		{"batch query wraps to vertex 5", "POST", "/knn", `{"queries":[4294967301],"k":2}`},
		{"insert wraps to vertex 7", "POST", "/objects", `{"vertex":4294967303}`},
		{"delete wraps to object 0", "DELETE", "/objects?id=4294967296", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := liveGridConfig(t)
			if _, _, err := cfg.Live.Insert(3); err != nil { // object 0
				t.Fatal(err)
			}
			rec := serve(New(cfg).Handler(), c.method, c.target, c.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
			}
			if cfg.Live.Version() != 1 || cfg.Live.Len() != 1 {
				t.Fatalf("live world changed: version %d, %d objects", cfg.Live.Version(), cfg.Live.Len())
			}
		})
	}
}

// TestServerAllocBudget pins the allocations of a warm request served
// through Handler() on the in-RAM grid, the engine's own and the test's
// request and recorder included. Replies written by encoding/json from maps
// took 63 (GET /knn at k=10), 53 (GET /distance) and 5,196 (POST /knn, 64
// queries at k=10, 4,200-odd of them the engine's): reflection creeping
// back into a reply shows here.
func TestServerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	h := New(ramGridConfig(t)).Handler()
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = strconv.Itoa(i * 4)
	}
	batch := `{"queries":[` + strings.Join(queries, ",") + `],"k":10}`
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pools mid-count
	for _, c := range []struct {
		method, target, body string
		budget               float64
	}{
		{"GET", "/knn?q=100&k=10", "", 39},
		{"GET", "/distance?src=3&dst=250", "", 32},
		{"POST", "/knn", batch, 4241},
	} {
		send := func() {
			if rec := serve(h, c.method, c.target, c.body); rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", c.method, c.target, rec.Code, rec.Body)
			}
		}
		send() // warm the pools
		if got := testing.AllocsPerRun(50, send); got > c.budget {
			t.Errorf("%s %s: %.0f allocs, budget %.0f", c.method, c.target, got, c.budget)
		}
	}
}

// TestLiveReplyStampsVersion: a live GET /knn, a live /range and every
// result of a live batch carry the world's current version spelled exactly
// `"snapshot_version": <v>`, the literal a client may search a reply for
// instead of decoding it (the benchmark's live_churn does).
func TestLiveReplyStampsVersion(t *testing.T) {
	cfg := liveGridConfig(t)
	for _, v := range []silc.VertexID{3, 9, 40, 41, 63} {
		if _, _, err := cfg.Live.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	h := New(cfg).Handler()
	stamp := fmt.Sprintf("\"snapshot_version\": %d\n", cfg.Live.Version())
	for _, c := range []struct {
		method, target, body string
		stamps               int
	}{
		{"GET", "/knn?q=10&k=3&live=1", "", 1},
		{"GET", "/range?q=10&radius=0.5&live=1", "", 1},
		{"POST", "/knn", `{"queries":[0,10,63],"k":2,"live":true}`, 3},
	} {
		rec := serve(h, c.method, c.target, c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", c.method, c.target, rec.Code, rec.Body)
		}
		if n := strings.Count(rec.Body.String(), stamp); n != c.stamps {
			t.Errorf("%s %s: %d × %q, want %d:\n%s", c.method, c.target, n, stamp, c.stamps, rec.Body)
		}
	}
}
