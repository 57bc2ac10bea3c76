package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// pinnedServers returns the two servers the pinned corpus runs against: the
// disk-backed 8×8 grid with every vertex an object and an (initially empty)
// live world, and the four-cell sharded 10×10 road map without one.
func pinnedServers(t *testing.T) (grid, sharded http.Handler) {
	return New(liveGridConfig(t)).Handler(), New(shardedConfig(t)).Handler()
}

// volatileKeys are dropped before a body is hashed: per-query statistics,
// timings, and counters that depend on the machine or on how a batch's
// workers interleave on the buffer pool.
var volatileKeys = map[string]bool{
	"stats": true, "wall_us": true, "qps": true, "total_cpu_us": true,
	"uptime_s": true, "endpoints": true, "workers": true, "build_time_ms": true,
	"measured_io_time_us": true, "page_hits": true, "page_misses": true, "page_reads": true,
}

// pinnedRequest is one request of the corpus and its recorded response:
// "status content-type format sha" for a 2xx, "status content-type format
// {keys}" for a 4xx (message text may change, its shape may not). WATCH
// opens /watch, reads the initial line, POSTs body to /objects, and reads
// the delta line that insert causes.
type pinnedRequest struct {
	method, path, body, want string
}

var pinnedGrid = []pinnedRequest{
	{"GET", "/healthz", "", "200 text/plain; charset=utf-8 text dc51b8c96c2d745d"},
	{"GET", "/readyz", "", "200 text/plain; charset=utf-8 text ed1a545bb85e5581"},
	{"GET", "/knn?q=0&k=3", "", "200 application/json indented 30947ce447fa9e50"},
	{"GET", "/knn?q=5&k=4&method=INN", "", "200 application/json indented 4985db21f2af4a9f"},
	{"GET", "/knn?q=5&k=4&method=knn-i", "", "200 application/json indented 4985db21f2af4a9f"},
	{"GET", "/knn?q=5&k=4&method=KNNM", "", "200 application/json indented eb4c8de8e7f91434"},
	{"GET", "/knn?q=5&k=4&method=INE", "", "200 application/json indented c6d22add6528131c"},
	{"GET", "/knn?q=5&k=4&method=IER", "", "200 application/json indented c6d22add6528131c"},
	{"GET", "/knn?q=5&k=4&eps=0.5", "", "200 application/json indented 6d05b6912f9bcf79"},
	{"GET", "/knn?q=5&k=4&max_dist=0.2", "", "200 application/json indented 4985db21f2af4a9f"},
	{"GET", "/knn?q=5&k=4&max_dist=0", "", "200 application/json indented 4985db21f2af4a9f"},
	{"GET", "/knn?q=5&k=4&max_dist=inf", "", "200 application/json indented 4985db21f2af4a9f"},
	{"GET", "/knn?q=5&k=4&exact=1", "", "200 application/json indented 4985db21f2af4a9f"},
	{"GET", "/knn?q=5&k=4&exact=true&live=0", "", "200 application/json indented 4985db21f2af4a9f"},
	{"GET", "/knn?q=+5&k=04&exact=false&live=false", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=%2B5&k=04&exact=false&live=false", "", "200 application/json indented 4985db21f2af4a9f"},
	{"GET", "/distance?src=0&dst=63", "", "200 application/json indented 12d9121b0502e3bc"},
	{"GET", "/distance?src=7&dst=7", "", "200 application/json indented f01cecb491424c8a"},
	{"GET", "/path?src=0&dst=63", "", "200 application/json indented bfd03612c18316ee"},
	{"GET", "/path?src=9&dst=9", "", "200 application/json indented 9966b4d6f5c33cec"},
	{"GET", "/range?q=0&radius=0.3", "", "200 application/json indented dad8977470b789c9"},
	{"GET", "/range?q=0&radius=0.3&exact=1", "", "200 application/json indented dac5c9b797b2e471"},
	{"GET", "/range?q=0&radius=0", "", "200 application/json indented 9d5b123a0f2fd351"},
	{"GET", "/browse?src=0&n=7", "", "200 application/x-ndjson ndjson×8 0b74442e84d1659e"},
	{"GET", "/browse?src=0&n=5&eps=0.5", "", "200 application/x-ndjson ndjson×6 b9804e24ea21aaf7"},
	{"GET", "/browse?src=1&n=100", "", "200 application/x-ndjson ndjson×65 f75047d0da64602b"},
	{"GET", "/browse?src=2", "", "200 application/x-ndjson ndjson×11 470a78e0fc15a363"},
	{"POST", "/knn", `{"queries":[0,7,21,63],"k":2,"method":"KNN"}`, "200 application/json indented 7543ef8368c4912d"},
	{"POST", "/knn", `{"queries":[5,40],"k":3,"method":"INN","eps":0.5,"max_dist":0.3,"exact":true}`, "200 application/json indented c936d86057a26cd2"},
	{"POST", "/knn", `{"queries":[5],"k":3,"max_dist":0}`, "200 application/json indented e8ccd149736b5bb2"},
	{"GET", "/objects", "", "200 application/json indented fb593362d558d63b"},
	{"POST", "/objects", `{"vertex":9}`, "200 application/json indented f44bc1549fe6f0b0"},
	{"POST", "/objects", `{"x":0,"y":0}`, "200 application/json indented d1135ce69d73d5a5"},
	{"POST", "/objects", `{"x":0.9,"y":0.4}`, "200 application/json indented 8e64939eda68de25"},
	{"POST", "/objects", `{"id":0,"vertex":12}`, "200 application/json indented 0682388acaf6fb82"},
	{"GET", "/objects", "", "200 application/json indented 3c5920a5b5cf125c"},
	{"GET", "/knn?q=9&k=1&live=1", "", "200 application/json indented d282aab306bc9eda"},
	{"GET", "/knn?q=9&k=5&live=true&exact=1", "", "200 application/json indented 8ac46b311deeb300"},
	{"GET", "/range?q=9&radius=0.5&live=1", "", "200 application/json indented bc2a50af40f4cf18"},
	{"POST", "/knn", `{"queries":[0,9],"k":1,"live":true}`, "200 application/json indented d54e4f67c4905963"},
	{"DELETE", "/objects?id=1", "", "200 application/json indented 1718a98779a8d286"},
	{"GET", "/objects", "", "200 application/json indented fb59cf01facd390d"},

	// Bad requests: TestServerBadRequests' and every other rejection.
	{"GET", "/knn?q=0", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=9999&k=3", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=0", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=3&method=WARP", "", "400 application/json compact {error}"},
	{"GET", "/distance?src=0", "", "400 application/json compact {error}"},
	{"GET", "/range?q=0&radius=-1", "", "400 application/json compact {error}"},
	{"GET", "/knn?k=3", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=-1&k=3", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=64&k=3", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=abc&k=3", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=4294967296&k=3", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=101", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=abc", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=3&eps=-1", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=3&eps=nope", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=3&eps=inf", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=3&eps=NaN", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=3&max_dist=-1", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=3&max_dist=NaN", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=3&max_dist=x", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=3&exact=yes", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=3&live=maybe", "", "400 application/json compact {error}"},
	{"GET", "/distance?src=0&dst=64", "", "400 application/json compact {error}"},
	{"GET", "/distance?dst=5", "", "400 application/json compact {error}"},
	{"GET", "/path?src=0&dst=-1", "", "400 application/json compact {error}"},
	{"GET", "/path?src=x&dst=1", "", "400 application/json compact {error}"},
	{"GET", "/range?q=0", "", "400 application/json compact {error}"},
	{"GET", "/range?q=0&radius=inf", "", "400 application/json compact {error}"},
	{"GET", "/range?q=0&radius=NaN", "", "400 application/json compact {error}"},
	{"GET", "/range?q=0&radius=abc", "", "400 application/json compact {error}"},
	{"GET", "/range?q=0&radius=0.3&exact=2", "", "400 application/json compact {error}"},
	{"GET", "/range?q=0&radius=0.3&live=2", "", "400 application/json compact {error}"},
	{"GET", "/range?q=99&radius=0.3", "", "400 application/json compact {error}"},
	{"GET", "/browse?src=-1&n=3", "", "400 application/json compact {error}"},
	{"GET", "/browse?src=0&n=0", "", "400 application/json compact {error}"},
	{"GET", "/browse?src=0&n=101", "", "400 application/json compact {error}"},
	{"GET", "/browse?src=0&n=x", "", "400 application/json compact {error}"},
	{"GET", "/browse?src=0&eps=-2", "", "400 application/json compact {error}"},
	{"GET", "/browse?n=3", "", "400 application/json compact {error}"},
	{"GET", "/watch?q=0", "", "400 application/json compact {error}"},
	{"GET", "/watch?q=0&k=0", "", "400 application/json compact {error}"},
	{"GET", "/watch?q=64&k=2", "", "400 application/json compact {error}"},
	{"GET", "/watch?q=0&k=2&max_dist=-1", "", "400 application/json compact {error}"},
	{"POST", "/knn", `not json`, "400 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[],"k":2}`, "400 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[1],"k":0}`, "400 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[1],"k":101}`, "400 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[1],"k":2,"method":"WARP"}`, "400 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[1],"k":2,"eps":-1}`, "400 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[1],"k":2,"max_dist":-1}`, "400 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[64],"k":2}`, "400 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[-1],"k":2}`, "400 application/json compact {error}"},
	{"POST", "/knn", `{"queries":"x","k":2}`, "400 application/json compact {error}"},
	{"POST", "/knn", strings.Repeat(" ", 30000) + `{"queries":[1],"k":2}`, "400 application/json compact {error}"},
	{"POST", "/objects", `not json`, "400 application/json compact {error}"},
	{"POST", "/objects", `{}`, "400 application/json compact {error}"},
	{"POST", "/objects", `{"id":0}`, "400 application/json compact {error}"},
	{"POST", "/objects", `{"vertex":64}`, "400 application/json compact {error}"},
	{"POST", "/objects", `{"id":999,"vertex":3}`, "404 application/json compact {error}"},
	{"POST", "/objects", `{"x":0.5}`, "400 application/json compact {error}"},
	{"POST", "/objects", strings.Repeat(" ", 5000) + `{"vertex":1}`, "400 application/json compact {error}"},
	{"DELETE", "/objects", "", "400 application/json compact {error}"},
	{"DELETE", "/objects?id=abc", "", "400 application/json compact {error}"},
	{"DELETE", "/objects?id=9999", "", "404 application/json compact {error}"},
	{"PUT", "/objects", "", "405 application/json compact {error}"},

	{"GET", "/stats", "", "200 application/json indented 27998802dc971c1b"},
	{"WATCH", "/watch?q=3&k=4", `{"vertex":4}`, "200 application/x-ndjson ndjson×2 960a4e279e54af44 after [200 application/json indented bae6c9178c6601ad]"},
}

var pinnedSharded = []pinnedRequest{
	{"GET", "/knn?q=3&k=4", "", "200 application/json indented 54bc1116c8052bcc"},
	{"GET", "/knn?q=3&k=4&exact=1", "", "200 application/json indented 11cf8fc2cb1c55e8"},
	{"GET", "/knn?q=50&k=6&method=INN&eps=0.25", "", "200 application/json indented 742574aac602732d"},
	{"GET", "/distance?src=0&dst=50", "", "200 application/json indented ba97c87ae1696382"},
	{"GET", "/path?src=0&dst=50", "", "200 application/json indented f7dca9f25c0a9889"},
	{"GET", "/range?q=5&radius=0.3", "", "200 application/json indented 0f3c5822ab329aa2"},
	{"GET", "/range?q=5&radius=0.3&exact=1", "", "200 application/json indented 9191adc79a447ff4"},
	{"GET", "/browse?src=0&n=7", "", "200 application/x-ndjson ndjson×8 e9ac05a97ab9089f"},
	{"POST", "/knn", `{"queries":[0,3,50],"k":3,"exact":true}`, "200 application/json indented 8d220303ea80582f"},

	// Without -live every live surface is a 404, after the 400s of a bad
	// parameter and before the engine's own checks.
	{"GET", "/knn?q=0&k=1&live=1", "", "404 application/json compact {error}"},
	{"GET", "/range?q=0&radius=0.2&live=1", "", "404 application/json compact {error}"},
	{"GET", "/objects", "", "404 application/json compact {error}"},
	{"POST", "/objects", `{"vertex":1}`, "404 application/json compact {error}"},
	{"DELETE", "/objects?id=0", "", "404 application/json compact {error}"},
	{"PUT", "/objects", "", "404 application/json compact {error}"},
	{"GET", "/watch?q=0&k=2", "", "404 application/json compact {error}"},
	{"GET", "/watch?q=-1&k=0", "", "404 application/json compact {error}"},
	{"GET", "/knn?q=0&k=0&live=1", "", "400 application/json compact {error}"},
	{"GET", "/knn?q=0&k=1&eps=-1&live=1", "", "400 application/json compact {error}"},
	{"GET", "/range?q=0&radius=-1&live=1", "", "400 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[0],"k":1,"live":true}`, "404 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[9999],"k":1,"live":true}`, "404 application/json compact {error}"},
	{"POST", "/knn", `{"queries":[0],"k":0,"live":true}`, "400 application/json compact {error}"},

	{"GET", "/stats", "", "200 application/json indented 89535dbf64ed8c4d"},
}

// TestServerResponsesPinned replays a fixed corpus against both servers and
// compares each response with the one recorded before the serving code moved
// out of cmd/silcserve: status, content type, encoding, and the SHA-256 of
// the body with its volatile keys dropped (for a 4xx, the body's keys).
func TestServerResponsesPinned(t *testing.T) {
	grid, sharded := pinnedServers(t)
	for _, c := range []struct {
		name   string
		h      http.Handler
		corpus []pinnedRequest
	}{{"grid", grid, pinnedGrid}, {"sharded", sharded, pinnedSharded}} {
		ts := httptest.NewServer(c.h)
		var diff []string
		for _, req := range c.corpus {
			got := pinnedResponse(t, ts, req)
			if got != req.want {
				diff = append(diff, fmt.Sprintf("\t{%q, %q, %q, %q},", req.method, req.path, req.body, got))
				t.Errorf("%s: %s %s %.40s: got %s, want %s", c.name, req.method, req.path, req.body, got, req.want)
			}
		}
		ts.Close()
		if len(diff) > 0 {
			t.Logf("%s responses now:\n%s", c.name, strings.Join(diff, "\n"))
		}
	}
}

// pinnedResponse sends one corpus request and summarizes its response.
func pinnedResponse(t *testing.T, ts *httptest.Server, req pinnedRequest) string {
	t.Helper()
	if req.method == "WATCH" {
		return pinnedWatch(t, ts, req)
	}
	hr, err := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(req.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	head := fmt.Sprintf("%d %s", resp.StatusCode, ct)
	switch {
	case !strings.HasPrefix(ct, "application/"):
		return head + " text " + digest(body)
	case ct == "application/x-ndjson":
		var lines [][]byte
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			if len(line) > 0 {
				lines = append(lines, line)
			}
		}
		return head + " " + pinnedLines(t, lines)
	case resp.StatusCode >= 400:
		var keys map[string]any
		if err := json.Unmarshal(body, &keys); err != nil {
			t.Fatalf("%s %s: error body %q: %v", req.method, req.path, body, err)
		}
		shape := make([]string, 0, len(keys))
		for k := range keys {
			shape = append(shape, k)
		}
		sort.Strings(shape)
		return head + " " + encoding(body) + " {" + strings.Join(shape, ",") + "}"
	}
	return head + " " + encoding(body) + " " + digest(canonical(t, body))
}

// pinnedWatch reads a /watch stream's initial line, inserts an object
// through POST /objects, and reads the delta line the insert causes.
func pinnedWatch(t *testing.T, ts *httptest.Server, req pinnedRequest) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+req.path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	first, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("watch: first line: %v", err)
	}
	ins := pinnedResponse(t, ts, pinnedRequest{method: "POST", path: "/objects", body: req.body})
	second, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("watch: delta line: %v", err)
	}
	return fmt.Sprintf("%d %s %s after [%s]", resp.StatusCode, resp.Header.Get("Content-Type"),
		pinnedLines(t, [][]byte{first, second}), ins)
}

// pinnedLines checks that every NDJSON line is one compact JSON value and
// digests their canonical forms.
func pinnedLines(t *testing.T, lines [][]byte) string {
	t.Helper()
	var all []byte
	for _, line := range lines {
		if enc := encoding(line); enc != "compact" {
			t.Fatalf("NDJSON line %q is %s", line, enc)
		}
		all = append(append(all, canonical(t, line)...), '\n')
	}
	return fmt.Sprintf("ndjson×%d %s", len(lines), digest(all))
}

// encoding names how a JSON body was written: "indented" as the JSON
// handlers' two-space encoder writes it, "compact" as the error writer and
// the streams do, each followed by one newline.
func encoding(body []byte) string {
	var compact, indented bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		return "invalid"
	}
	json.Indent(&indented, compact.Bytes(), "", "  ")
	switch string(body) {
	case indented.String() + "\n":
		return "indented"
	case compact.String() + "\n":
		return "compact"
	}
	return "other"
}

// canonical re-encodes one JSON value compactly, keeping its key order and
// number text, without the volatile keys.
func canonical(t *testing.T, body []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var out bytes.Buffer
	if err := canonicalValue(dec, &out); err != nil {
		t.Fatalf("canonical %q: %v", body, err)
	}
	return out.Bytes()
}

func canonicalValue(dec *json.Decoder, out *bytes.Buffer) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	switch v := tok.(type) {
	case json.Delim:
		closer := map[json.Delim]byte{'{': '}', '[': ']'}[v]
		out.WriteByte(byte(v))
		for n := 0; dec.More(); n++ {
			if v == '{' {
				key, err := dec.Token()
				if err != nil {
					return err
				}
				if volatileKeys[key.(string)] {
					var skip json.RawMessage
					if err := dec.Decode(&skip); err != nil {
						return err
					}
					n--
					continue
				}
				if n > 0 {
					out.WriteByte(',')
				}
				k, _ := json.Marshal(key)
				out.Write(append(k, ':'))
			} else if n > 0 {
				out.WriteByte(',')
			}
			if err := canonicalValue(dec, out); err != nil {
				return err
			}
		}
		if _, err := dec.Token(); err != nil {
			return err
		}
		out.WriteByte(closer)
	case json.Number:
		out.WriteString(v.String())
	default:
		b, _ := json.Marshal(v)
		out.Write(b)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
