package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// conn is the benchmark's one closed-loop caller: a single keep-alive
// connection that sends a request only after the previous reply is read.
type conn struct {
	base   string
	client *http.Client
	body   bytes.Buffer // the last reply, reused
}

const requestTimeout = 20 * time.Second

func newConn(base string) *conn {
	return &conn{
		base: base,
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        1,
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// request is one HTTP request, ready to send.
type request struct {
	method string
	path   string // with query string
	body   []byte
}

// formatOp turns an abstract op into the request for workload w. radius is
// the range radius; table resolves a mutation's object selector.
func formatOp(w *workload, o op, radius float64, table *liveTable) request {
	suffix := ""
	if w.live {
		suffix = "&live=1"
	}
	if w.exact {
		suffix += "&exact=1"
	}
	switch o.kind {
	case opKNN:
		return request{method: http.MethodGet, path: fmt.Sprintf("/knn?q=%d&k=%d%s", o.a, knnK, suffix)}
	case opRange:
		return request{method: http.MethodGet, path: "/range?q=" + strconv.Itoa(int(o.a)) +
			"&radius=" + strconv.FormatFloat(radius, 'g', -1, 64) + suffix}
	case opDistance:
		return request{method: http.MethodGet, path: fmt.Sprintf("/distance?src=%d&dst=%d", o.a, o.b)}
	case opPath:
		return request{method: http.MethodGet, path: fmt.Sprintf("/path?src=%d&dst=%d", o.a, o.b)}
	case opBatch:
		body, _ := json.Marshal(map[string]any{"queries": o.batch, "k": knnK, "live": w.live, "exact": w.exact})
		return request{method: http.MethodPost, path: "/knn", body: body}
	case opMove:
		return request{method: http.MethodPost, path: "/objects",
			body: []byte(fmt.Sprintf(`{"id":%d,"vertex":%d}`, table.target(o), o.b))}
	case opInsert:
		return request{method: http.MethodPost, path: "/objects", body: []byte(fmt.Sprintf(`{"vertex":%d}`, o.b))}
	case opDelete:
		return request{method: http.MethodDelete, path: fmt.Sprintf("/objects?id=%d", table.target(o))}
	}
	panic("unknown op kind")
}

// do sends one request and reads the whole reply into c.body. The returned
// duration is what the caller waited: from before the send until the last
// byte of the reply was read.
func (c *conn) do(r request) (time.Duration, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, body)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return time.Since(start), err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("%s %s: %s: %s", r.method, r.path, resp.Status, bytes.TrimSpace(c.body.Bytes()))
	}
	return d, nil
}

// neighbor and reply mirror the parts of the servers' JSON the checks read.
type neighbor struct {
	ID     int32   `json:"id"`
	Vertex int32   `json:"vertex"`
	Dist   float64 `json:"dist"`
	Exact  bool    `json:"exact"`
}

type reply struct {
	Neighbors []neighbor `json:"neighbors"`
	Sorted    bool       `json:"sorted"`
	Results   []reply    `json:"results"` // batch

	Reachable bool    `json:"reachable"` // distance, path
	Distance  float64 `json:"distance"`
	Path      []int32 `json:"path"`

	ID      *int32 `json:"id"` // mutation acks
	Version uint64 `json:"version"`
}

func decodeReply(body []byte) (*reply, error) {
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("bad reply JSON: %w", err)
	}
	return &r, nil
}

var versionKey = []byte(`"snapshot_version": `)

// snapshotVersion pulls stats.snapshot_version out of a reply without a full
// JSON decode: it runs on every live read inside the timed window.
func snapshotVersion(body []byte) (uint64, bool) {
	i := bytes.Index(body, versionKey)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(versionKey):]
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	v, err := strconv.ParseUint(string(rest[:n]), 10, 64)
	return v, err == nil
}
