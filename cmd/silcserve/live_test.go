package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"silc"
	"silc/internal/server"
)

// testLiveServer is testServer plus a live object world over the same
// network, as -live would wire it up.
func testLiveServer(t *testing.T) server.Config {
	t.Helper()
	srv := testServer(t)
	live, err := silc.NewLiveObjects(srv.Engine.Network(), silc.LiveObjectsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	srv.Live = live
	return srv
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body map[string]any, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
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

func TestServerLiveObjectsCRUD(t *testing.T) {
	ts := httptest.NewServer(routes(testLiveServer(t)))
	defer ts.Close()

	// Insert at a vertex.
	var ins struct {
		ID      int32  `json:"id"`
		Vertex  int64  `json:"vertex"`
		Version uint64 `json:"version"`
	}
	if resp := postJSON(t, ts, "/objects", map[string]any{"vertex": 9}, &ins); resp.StatusCode != 200 {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	if ins.Vertex != 9 || ins.Version == 0 {
		t.Fatalf("insert response: %+v", ins)
	}

	// Insert at a point: the response reports the snapped vertex.
	var pt struct {
		ID      int32  `json:"id"`
		Vertex  int64  `json:"vertex"`
		Version uint64 `json:"version"`
	}
	if resp := postJSON(t, ts, "/objects", map[string]any{"x": 0.0, "y": 0.0}, &pt); resp.StatusCode != 200 {
		t.Fatalf("point insert status %d", resp.StatusCode)
	}
	if pt.ID == ins.ID || pt.Version <= ins.Version {
		t.Fatalf("point insert response: %+v after %+v", pt, ins)
	}

	// Live query pins a snapshot and stamps its version.
	var knn struct {
		Neighbors []struct {
			Vertex int64   `json:"vertex"`
			Dist   float64 `json:"dist"`
		} `json:"neighbors"`
		Stats struct {
			SnapshotVersion uint64 `json:"snapshot_version"`
		} `json:"stats"`
	}
	if resp := getJSON(t, ts, "/knn?q=9&k=1&live=1", &knn); resp.StatusCode != 200 {
		t.Fatalf("live knn status %d", resp.StatusCode)
	}
	if len(knn.Neighbors) != 1 || knn.Neighbors[0].Vertex != 9 || knn.Neighbors[0].Dist != 0 {
		t.Fatalf("live knn response: %+v", knn)
	}
	if knn.Stats.SnapshotVersion != pt.Version {
		t.Fatalf("live knn stamped version %d, want %d", knn.Stats.SnapshotVersion, pt.Version)
	}
	// The static set (live omitted) is unaffected and stamps no version.
	var static struct {
		Stats struct {
			SnapshotVersion uint64 `json:"snapshot_version"`
		} `json:"stats"`
	}
	getJSON(t, ts, "/knn?q=9&k=1", &static)
	if static.Stats.SnapshotVersion != 0 {
		t.Fatalf("static knn stamped version %d", static.Stats.SnapshotVersion)
	}

	// Move.
	var mv struct {
		Version uint64 `json:"version"`
	}
	if resp := postJSON(t, ts, "/objects", map[string]any{"id": ins.ID, "vertex": 12}, &mv); resp.StatusCode != 200 {
		t.Fatalf("move status %d", resp.StatusCode)
	}
	if mv.Version <= pt.Version {
		t.Fatalf("move version %d not past %d", mv.Version, pt.Version)
	}

	// List reflects both objects at their current vertices.
	var list struct {
		Version uint64 `json:"version"`
		Count   int    `json:"count"`
		Objects []struct {
			ID     int32 `json:"id"`
			Vertex int64 `json:"vertex"`
		} `json:"objects"`
	}
	getJSON(t, ts, "/objects", &list)
	if list.Count != 2 || list.Version != mv.Version {
		t.Fatalf("list response: %+v", list)
	}
	vertices := map[int32]int64{}
	for _, o := range list.Objects {
		vertices[o.ID] = o.Vertex
	}
	if vertices[ins.ID] != 12 {
		t.Fatalf("moved object at vertex %d, want 12", vertices[ins.ID])
	}

	// Remove; unknown ids are 404s; a bad live param is a 400.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/objects?id="+strconv.Itoa(int(ins.ID)), nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/objects?id=9999", nil)
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown id status %d, want 404", resp2.StatusCode)
	}
	if resp := getJSON(t, ts, "/knn?q=0&k=1&live=maybe", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad live param status %d, want 400", resp.StatusCode)
	}

	// Batch against the live world.
	var batch struct {
		Results []struct {
			Neighbors []struct {
				Dist float64 `json:"dist"`
			} `json:"neighbors"`
		} `json:"results"`
		Batch struct {
			Queries int `json:"queries"`
			Failed  int `json:"failed"`
			Skipped int `json:"skipped"`
		} `json:"batch"`
	}
	if resp := postJSON(t, ts, "/knn", map[string]any{
		"queries": []int64{0, 9}, "k": 1, "live": true,
	}, &batch); resp.StatusCode != 200 {
		t.Fatalf("live batch status %d", resp.StatusCode)
	}
	if batch.Batch.Queries != 2 || batch.Batch.Failed != 0 || batch.Batch.Skipped != 0 {
		t.Fatalf("live batch stats: %+v", batch.Batch)
	}

	// The live store's metrics surface through /metrics.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"silc_objstore_inserts_total", "silc_objstore_objects", "silc_objstore_version"} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerPointInsertReportsItsOwnVertex pins the reply of a point insert
// to the vertex THAT write put the object on. Ids are monotone, so a mover
// can lie in wait for the next id and relocate it the moment the insert
// publishes — before the handler writes its reply. A reply read back from
// the store's current snapshot would then report the mover's vertex.
func TestServerPointInsertReportsItsOwnVertex(t *testing.T) {
	srv := testLiveServer(t)
	ts := httptest.NewServer(routes(srv))
	defer ts.Close()
	net := srv.Engine.Network()

	const inserts = 300
	away := net.NearestVertex(silc.Point{X: 1, Y: 1}) // the inserts stay in the opposite quadrant
	stop := make(chan struct{})
	moverDone := make(chan struct{})
	go func() {
		defer close(moverDone)
		for id := int32(0); id < inserts; id++ {
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := srv.Live.Move(id, away); err == nil {
					break
				}
			}
		}
	}()
	for i := 0; i < inserts; i++ {
		p := silc.Point{X: float64(i%17) / 34, Y: float64(i%13) / 26}
		want := net.NearestVertex(p)
		if want == away {
			t.Fatalf("point %v snaps onto the mover's vertex", p)
		}
		var reply struct {
			ID     int32 `json:"id"`
			Vertex int64 `json:"vertex"`
		}
		if resp := postJSON(t, ts, "/objects", map[string]any{"x": p.X, "y": p.Y}, &reply); resp.StatusCode != 200 {
			t.Fatalf("point insert status %d", resp.StatusCode)
		}
		if reply.ID != int32(i) || reply.Vertex != int64(want) {
			close(stop)
			t.Fatalf("insert %d at %v answered id %d on vertex %d, want id %d on vertex %d",
				i, p, reply.ID, reply.Vertex, i, want)
		}
	}
	close(stop)
	<-moverDone
}

// TestServerLiveDisabled: without -live every live surface is a 404.
func TestServerLiveDisabled(t *testing.T) {
	ts := httptest.NewServer(routes(testServer(t)))
	defer ts.Close()
	for _, path := range []string{"/objects", "/watch?q=0&k=2", "/knn?q=0&k=1&live=1"} {
		resp := getJSON(t, ts, path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServerWatchStream reads the continuous-kNN NDJSON stream: the first
// line is the full initial top-k, a live insert produces a delta line.
func TestServerWatchStream(t *testing.T) {
	srv := testLiveServer(t)
	if _, _, err := srv.Live.Insert(3); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(routes(srv))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/watch?q=3&k=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/watch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/watch content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var first struct {
		Version   uint64           `json:"version"`
		Neighbors []map[string]any `json:"neighbors"`
	}
	if err := dec.Decode(&first); err != nil {
		t.Fatalf("initial watch line: %v", err)
	}
	if len(first.Neighbors) != 1 || first.Version == 0 {
		t.Fatalf("initial watch line: %+v", first)
	}

	// A mutation that changes the top-k yields a delta line.
	if _, _, err := srv.Live.Insert(4); err != nil {
		t.Fatal(err)
	}
	var second struct {
		Version   uint64           `json:"version"`
		Neighbors []map[string]any `json:"neighbors"`
		Added     []map[string]any `json:"added"`
	}
	if err := dec.Decode(&second); err != nil {
		t.Fatalf("delta watch line: %v", err)
	}
	if second.Version <= first.Version || len(second.Neighbors) != 2 || len(second.Added) != 1 {
		t.Fatalf("delta watch line: %+v", second)
	}
}
