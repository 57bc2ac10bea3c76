package server

import (
	"cmp"
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"silc"
)

// required, as a parameter's default, makes its absence an error.
const required = -1

// params parses one request's query string. It keeps the first error, so a
// handler reads every parameter it takes and checks once.
type params struct {
	url.Values
	n   int // vertices: a vertex parameter must lie in [0,n)
	err error
}

func (s *Server) params(r *http.Request) params {
	return params{Values: r.URL.Query(), n: s.Engine.Network().NumVertices()}
}

func (p *params) fail(format string, args ...any) {
	if p.err == nil {
		p.err = badRequest(format, args...)
	}
}

// int parses a 32-bit integer, def when absent. Parsing at 32 bits rejects
// an id or vertex beyond int32 before any conversion could wrap it.
func (p *params) int(name string, def int) int {
	raw := p.Get(name)
	if raw == "" {
		if def == required {
			p.fail("missing parameter %q", name)
		}
		return def
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		p.fail("parameter %q must be a 32-bit integer", name)
	}
	return int(v)
}

// float parses a number, def when absent.
func (p *params) float(name string, def float64) float64 {
	raw := p.Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		p.fail("parameter %q must be a number", name)
	}
	return v
}

// vertex parses a required vertex id.
func (p *params) vertex(name string) silc.VertexID {
	v := p.int(name, required)
	if v < 0 || v >= p.n {
		p.fail("parameter %q: not a vertex id in [0,%d)", name, p.n)
	}
	return silc.VertexID(v)
}

// flag parses an optional 0/1/true/false switch.
func (p *params) flag(name string) bool {
	switch p.Get(name) {
	case "", "0", "false":
		return false
	case "1", "true":
		return true
	}
	p.fail("parameter %s must be 0/1/true/false", name)
	return false
}

// knnRequest is one kNN request: POST /knn decodes it from the body (a
// batch), GET /knn fills it from the query string, and /browse and /watch
// fill the parts they take.
type knnRequest struct {
	Queries []silc.VertexID `json:"queries"`
	K       int             `json:"k"`
	Method  string          `json:"method"`
	Eps     float64         `json:"eps"`
	MaxDist float64         `json:"max_dist"`
	Exact   bool            `json:"exact"`
	Live    bool            `json:"live"`
}

// knnOptions validates a kNN request against the server's limits and
// builds its query options. A max_dist of 0 means unbounded.
func (s *Server) knnOptions(req *knnRequest) ([]silc.Option, error) {
	method, err := silc.ParseMethod(req.Method)
	switch err = cmp.Or(err, checkEps(req.Eps)); {
	case req.K < 1 || req.K > s.MaxK:
		return nil, badRequest("k must be in [1,%d]", s.MaxK)
	case err != nil:
		return nil, err
	case math.IsNaN(req.MaxDist) || req.MaxDist < 0:
		return nil, badRequest("max_dist must be a non-negative number")
	}
	opts := []silc.Option{silc.WithMethod(method)}
	if req.Eps > 0 {
		opts = append(opts, silc.WithEpsilon(req.Eps))
	}
	if req.MaxDist > 0 {
		opts = append(opts, silc.WithMaxDistance(req.MaxDist))
	}
	if req.Exact {
		opts = append(opts, silc.WithExactDistances())
	}
	return opts, nil
}

// checkEps is the eps check of every endpoint that takes eps: a finite
// non-negative number, 0 (the default) for an exact query.
func checkEps(eps float64) error {
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
		return badRequest("eps must be a finite non-negative number")
	}
	return nil
}

// objects resolves the object set a query runs against: the static startup
// set, or — live — a pinned snapshot of the live world, exact for the
// version stamped into the result's stats.
func (s *Server) objects(live bool) (*silc.ObjectSet, error) {
	if !live {
		return s.Objects, nil
	}
	if s.Live == nil {
		return nil, errLiveDisabled
	}
	return s.Live.View(), nil
}

func (s *Server) handleKNN(r *http.Request) (answer, error) {
	var req knnRequest
	batch := r.Method == http.MethodPost
	if batch {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return answer{}, badRequest("bad JSON body: %v", err)
		}
		if len(req.Queries) == 0 || len(req.Queries) > s.MaxBatch {
			return answer{}, badRequest("batch size must be in [1,%d]", s.MaxBatch)
		}
	} else {
		p := s.params(r)
		req = knnRequest{
			Queries: []silc.VertexID{p.vertex("q")},
			K:       p.int("k", required),
			Method:  p.Get("method"),
			Eps:     p.float("eps", 0),
			MaxDist: p.float("max_dist", 0),
			Exact:   p.flag("exact"),
			Live:    p.flag("live"),
		}
		if p.err != nil {
			return answer{}, p.err
		}
	}
	opts, err := s.knnOptions(&req)
	if err != nil {
		return answer{}, err
	}
	objs, err := s.objects(req.Live)
	if err != nil {
		return answer{}, err
	}
	if !batch {
		body := &knnReply{k: req.K, q: req.Queries[0]}
		if body.res, err = s.Engine.Query(r.Context(), objs, body.q, req.K, opts...); err != nil {
			return answer{}, err
		}
		return answered(body, &body.res.Stats), nil
	}
	body := &batchReply{k: req.K, queries: req.Queries}
	if body.b, err = s.Engine.QueryBatch(r.Context(), objs, req.Queries, req.K, opts...); err != nil {
		return answer{}, err
	}
	return answer{body: body, queries: len(req.Queries)}, nil
}

func (s *Server) handleDistance(r *http.Request) (answer, error) {
	p := s.params(r)
	body := &distanceReply{src: p.vertex("src"), dst: p.vertex("dst")}
	eps := p.float("eps", 0)
	if err := cmp.Or(p.err, checkEps(eps)); err != nil {
		return answer{}, err
	}
	var err error
	if body.dist, err = s.Engine.Distance(r.Context(), body.src, body.dst, silc.WithStats(&body.stats), silc.WithEpsilon(eps)); err != nil {
		return answer{}, err
	}
	return answered(body, &body.stats), nil
}

func (s *Server) handlePath(r *http.Request) (answer, error) {
	p := s.params(r)
	body := &pathReply{src: p.vertex("src"), dst: p.vertex("dst")}
	if p.err != nil {
		return answer{}, p.err
	}
	var err error
	if body.path, err = s.Engine.ShortestPath(r.Context(), body.src, body.dst, silc.WithStats(&body.stats)); err != nil {
		return answer{}, err
	}
	if body.path != nil {
		body.dist = pathCost(s.Engine.Network(), body.path)
	}
	return answered(body, &body.stats), nil
}

// pathCost sums edge weights along a path already retrieved from the index,
// avoiding a second full refinement query for the distance.
func pathCost(net *silc.Network, path []silc.VertexID) float64 {
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		targets, weights := net.Neighbors(path[i])
		best := math.Inf(1)
		for j, t := range targets {
			if t == path[i+1] && weights[j] < best {
				best = weights[j] // cheapest parallel edge = the one on the shortest path
			}
		}
		total += best
	}
	return total
}

func (s *Server) handleRange(r *http.Request) (answer, error) {
	p := s.params(r)
	body := &rangeReply{q: p.vertex("q"), radius: p.float("radius", math.NaN())} // absent: rejected below
	if math.IsNaN(body.radius) || math.IsInf(body.radius, 0) || body.radius < 0 {
		p.fail("parameter radius must be a finite non-negative number")
	}
	eps, exact, live := p.float("eps", 0), p.flag("exact"), p.flag("live")
	if err := cmp.Or(p.err, checkEps(eps)); err != nil {
		return answer{}, err
	}
	objs, err := s.objects(live)
	if err != nil {
		return answer{}, err
	}
	var opts []silc.Option
	if eps > 0 {
		opts = append(opts, silc.WithEpsilon(eps))
	}
	if exact {
		opts = append(opts, silc.WithExactDistances())
	}
	if body.res, err = s.Engine.WithinDistance(r.Context(), objs, body.q, body.radius, opts...); err != nil {
		return answer{}, err
	}
	return answered(body, &body.res.Stats), nil
}

func (s *Server) handleStats(r *http.Request) (answer, error) {
	body := &statsReply{
		objects:  s.Objects.Len(),
		pool:     s.Engine.IOStats(),
		uptimeS:  int64(time.Since(s.started).Seconds()),
		queries:  s.queries.Load(),
		inflight: s.inflight.Value(),
		tracing:  s.Engine.TracingEnabled(),
		index:    s.Engine.Stats().Sharded,
	}
	for name, em := range s.endpoints {
		body.requests += em.requests.Value()
		if em.latency.Count() == 0 {
			continue
		}
		body.endpoints = append(body.endpoints, endpointStats{
			name:     name,
			requests: em.requests.Value(),
			p50US:    em.latency.Quantile(0.50).Microseconds(),
			p90US:    em.latency.Quantile(0.90).Microseconds(),
			p99US:    em.latency.Quantile(0.99).Microseconds(),
		})
	}
	slices.SortFunc(body.endpoints, func(a, b endpointStats) int { return strings.Compare(a.name, b.name) })
	if s.Live != nil {
		body.live = &liveStats{objects: s.Live.Len(), version: s.Live.Version()}
	}
	return answer{body: body}, nil
}

// handleBrowse streams incremental distance browsing — the paper's headline
// operation — over HTTP, directly from the Engine.Neighbors iterator: the
// first n neighbors of src, one NDJSON line per neighbor, flushed as each
// is produced so clients consume the stream while the cursor is still
// working. The (k+1)st line costs only the incremental search. A client
// disconnect (or the request timeout) cancels the in-flight search itself,
// not just the writes.
func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	p := s.params(r)
	src := p.vertex("src")
	// n is the stream's k: the -max-k cap applies to its default too.
	req := knnRequest{K: p.int("n", min(10, s.MaxK)), Eps: p.float("eps", 0)}
	opts, err := s.knnOptions(&req)
	if err := cmp.Or(p.err, err); err != nil {
		writeError(w, err)
		return
	}
	var st silc.QueryStats
	opts = append(opts, silc.WithStats(&st))
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	defer s.queries.Add(1)
	streamed := 0
	for nb, err := range s.Engine.Neighbors(r.Context(), s.Objects, src, opts...) {
		if err != nil {
			// Disconnect, timeout, or bad argument: the search is already
			// cancelled; tell anyone still listening why the stream ended.
			enc.Encode(map[string]any{"error": err.Error(), "streamed": streamed})
			return
		}
		if err := enc.Encode(map[string]any{
			"rank":   streamed + 1,
			"id":     nb.ID,
			"vertex": nb.Vertex,
			"dist":   nb.Dist,
			"exact":  nb.Exact,
		}); err != nil {
			return // write failed (disconnect): stop streaming
		}
		if flusher != nil {
			flusher.Flush()
		}
		if streamed++; streamed >= req.K {
			break
		}
	}
	enc.Encode(map[string]any{
		"done":     true,
		"streamed": streamed,
		"stats":    toStats(st),
	})
	noteStats(r, st)
}

type neighborJSON struct {
	ID     int32   `json:"id"`
	Vertex int64   `json:"vertex"`
	Dist   float64 `json:"dist"`
	Exact  bool    `json:"exact"`
}

type queryStatsJSON struct {
	Method        string `json:"method"`
	Refinements   int    `json:"refinements"`
	Lookups       int    `json:"lookups"`
	Settled       int    `json:"settled,omitempty"`
	HeapPushes    int64  `json:"heap_pushes,omitempty"`
	PageHits      int64  `json:"page_hits"`
	PageMisses    int64  `json:"page_misses"`
	PageReads     int64  `json:"page_reads,omitempty"`
	Evictions     int64  `json:"evictions,omitempty"`
	BlocksDecoded int64  `json:"blocks_decoded,omitempty"`
	GatewayRoutes int64  `json:"gateway_routes,omitempty"`
	CPUTimeUS     int64  `json:"cpu_time_us"`
	FilterTimeUS  int64  `json:"filter_time_us,omitempty"`
	RefineTimeUS  int64  `json:"refine_time_us,omitempty"`
	SnapshotVer   uint64 `json:"snapshot_version,omitempty"`
}

func toNeighbor(n silc.Neighbor) neighborJSON {
	return neighborJSON{ID: n.ID, Vertex: int64(n.Vertex), Dist: n.Dist, Exact: n.Exact}
}

func toNeighbors(ns []silc.Neighbor) []neighborJSON {
	out := make([]neighborJSON, len(ns))
	for i, n := range ns {
		out[i] = toNeighbor(n)
	}
	return out
}

func toStats(st silc.QueryStats) queryStatsJSON {
	return queryStatsJSON{
		Method:        st.Method,
		Refinements:   st.Refinements,
		Lookups:       st.Lookups,
		Settled:       st.Settled,
		HeapPushes:    st.HeapPushes,
		PageHits:      st.PageHits,
		PageMisses:    st.PageMisses,
		PageReads:     st.PageReads,
		Evictions:     st.Evictions,
		BlocksDecoded: st.BlocksDecoded,
		GatewayRoutes: st.GatewayRoutes,
		CPUTimeUS:     st.CPUTime.Microseconds(),
		FilterTimeUS:  st.FilterTime.Microseconds(),
		RefineTimeUS:  st.RefineTime.Microseconds(),
		SnapshotVer:   st.SnapshotVersion,
	}
}
