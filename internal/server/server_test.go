package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"silc"
)

// gridConfig serves the disk-backed 8×8 grid — built OnDisk and reopened
// behind the default 5% pool — with an object on every vertex.
func gridConfig(t testing.TB) Config {
	t.Helper()
	net, err := silc.GenerateGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := silc.BuildIndex(net, silc.BuildOptions{OnDisk: filepath.Join(t.TempDir(), "grid.silcpg")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return Config{Engine: ix.Engine(), Objects: everyVertex(t, net), MaxK: 100, MaxBatch: 1000}
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
	built, err := silc.BuildShardedIndex(net, silc.ShardedBuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "road.silcspg")
	if err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ix, err := silc.OpenShardedIndex(path, silc.ShardedBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return Config{Engine: ix.Engine(), Objects: everyVertex(t, net), MaxK: 100, MaxBatch: 1000}
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
