package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"silc"
)

// FuzzServerRequest sends GET /knn, /distance and /range query strings,
// POST /knn and POST /objects bodies, and DELETE /objects query strings to
// the 8×8 grid server, whose static set and (reset) live world both hold an
// object on every vertex. No request may panic or answer 5xx; every 4xx
// carries a JSON {"error": …}; every 200 kNN result starts at its echoed
// query vertex at distance 0, every 200 /distance and /range reply is JSON,
// and every 200 /objects reply names an id and a vertex the live world
// agrees with.
func FuzzServerRequest(f *testing.F) {
	f.Add(uint8(0), "q=5&k=3")
	f.Add(uint8(0), "q=63&k=4&method=INN&eps=0.5&max_dist=0.3&exact=1&live=1")
	f.Add(uint8(1), `{"queries":[0,7,63],"k":2,"method":"KNN-M","exact":true}`)
	f.Add(uint8(1), `{"queries":[9],"k":1,"live":true}`)
	f.Add(uint8(2), `{"vertex":9}`)
	f.Add(uint8(2), `{"id":3,"vertex":12}`)
	f.Add(uint8(2), `{"x":0.25,"y":0.75}`)
	f.Add(uint8(3), "id=5")
	for _, eps := range []string{"0.1", "NaN", "-1", "%2BInf", "abc", "1e308"} {
		f.Add(uint8(4), "src=3&dst=60&eps="+eps)
		f.Add(uint8(5), "q=9&radius=0.3&exact=1&eps="+eps)
	}

	cfg := gridConfig(f)
	n := cfg.Engine.Network().NumVertices()
	var h http.Handler
	f.Fuzz(func(t *testing.T, kind uint8, input string) {
		if h == nil || cfg.Live.Version() != uint64(n) { // the last request mutated the world
			live, err := silc.NewLiveObjects(cfg.Engine.Network(), silc.LiveObjectsOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				live.Insert(silc.VertexID(v))
			}
			cfg.Live = live
			h = New(cfg).Handler()
		}
		var req *http.Request
		var err error
		switch kind % 6 {
		case 0:
			req, err = http.NewRequest(http.MethodGet, "/knn?"+input, nil)
		case 1:
			req, err = http.NewRequest(http.MethodPost, "/knn", strings.NewReader(input))
		case 2:
			req, err = http.NewRequest(http.MethodPost, "/objects", strings.NewReader(input))
		case 3:
			req, err = http.NewRequest(http.MethodDelete, "/objects?"+input, nil)
		case 4:
			req, err = http.NewRequest(http.MethodGet, "/distance?"+input, nil)
		case 5:
			req, err = http.NewRequest(http.MethodGet, "/range?"+input, nil)
		}
		if err != nil {
			return // not a request a client could send
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		switch {
		case rec.Code >= 500:
			t.Fatalf("%s %s %q: status %d: %s", req.Method, req.URL.Path, input, rec.Code, body)
		case rec.Code >= 400:
			var e map[string]any
			if err := json.Unmarshal(body, &e); err != nil || len(e) != 1 || e["error"] == nil {
				t.Fatalf("%s %s %q: status %d without a JSON error: %s", req.Method, req.URL.Path, input, rec.Code, body)
			}
		case rec.Code != http.StatusOK:
			t.Fatalf("%s %s %q: status %d", req.Method, req.URL.Path, input, rec.Code)
		case req.URL.Path == "/knn":
			checkKNNReply(t, req.Method, input, body)
		case req.URL.Path != "/objects":
			if !json.Valid(body) {
				t.Fatalf("%s %s %q: reply is not JSON: %s", req.Method, req.URL.Path, input, body)
			}
		default:
			var reply struct {
				ID     *int32 `json:"id"`
				Vertex *int32 `json:"vertex"`
			}
			if err := json.Unmarshal(body, &reply); err != nil || reply.ID == nil {
				t.Fatalf("%s /objects %q: reply %s: %v", req.Method, input, body, err)
			}
			v, ok := cfg.Live.Vertex(*reply.ID)
			if req.Method == http.MethodDelete && ok ||
				req.Method == http.MethodPost && (!ok || reply.Vertex == nil || v != silc.VertexID(*reply.Vertex)) {
				t.Fatalf("%s /objects %q: reply %s, but object %d is at vertex %d (present %v)", req.Method, input, body, *reply.ID, v, ok)
			}
		}
	})
}

// checkKNNReply checks that every result of a 200 kNN reply starts at its
// echoed query vertex at distance 0.
func checkKNNReply(t *testing.T, method, input string, body []byte) {
	t.Helper()
	type result struct {
		Query     int64 `json:"query"`
		Neighbors []struct {
			Vertex int64   `json:"vertex"`
			Dist   float64 `json:"dist"`
		} `json:"neighbors"`
	}
	var reply struct {
		result
		Results []result `json:"results"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("%s /knn %q: reply %s: %v", method, input, body, err)
	}
	results := reply.Results
	if method == http.MethodGet {
		results = []result{reply.result}
	}
	for _, r := range results {
		if len(r.Neighbors) == 0 || r.Neighbors[0].Vertex != r.Query || r.Neighbors[0].Dist != 0 {
			t.Fatalf("%s /knn %q: result for %d starts %+v", method, input, r.Query, r.Neighbors)
		}
	}
}
