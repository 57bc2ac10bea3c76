// Package server serves network-distance queries over HTTP/JSON from one
// shared SILC Engine — the "heavy traffic" deployment the concurrent query
// engine enables. Endpoints:
//
//	GET  /knn?q=V&k=K[&method=KNN][&eps=E][&max_dist=D][&exact=1]
//	                                 k nearest objects to vertex V; eps asks
//	                                 for ε-approximate ranking, max_dist for
//	                                 the hybrid kNN∩range query, exact=1
//	                                 refines every reported distance to exact
//	POST /knn {"queries":[...],"k":K[,"method":"KNN","eps":E,"max_dist":D,"exact":true]}
//	                                 batch kNN over a bounded worker pool
//	GET  /browse?src=V&n=N[&eps=E]   stream the first N neighbors of V
//	                                 incrementally (NDJSON, one line per
//	                                 neighbor) — the paper's distance
//	                                 browsing over HTTP
//	GET  /distance?src=U&dst=V[&eps=E]
//	                                 network distance, exact or, with eps,
//	                                 its lower bound d with true ≤ (1+E)·d
//	GET  /path?src=U&dst=V           exact shortest path
//	GET  /range?q=V&radius=R[&eps=E][&exact=1]
//	                                 objects within network distance R;
//	                                 eps admits objects up to (1+E)·R
//
// With a live object world (Config.Live, seeded by the caller) whose
// mutations never touch the index, the server additionally answers:
//
//	GET    /objects                  list live objects + store version
//	POST   /objects {"vertex":V}     insert an object (or {"x":X,"y":Y},
//	                                 snapped to the nearest vertex)
//	POST   /objects {"id":I,"vertex":V}  move object I
//	DELETE /objects?id=I             remove object I
//	GET  /knn?q=V&k=K&live=1         query the live world — the answer is
//	                                 exact for the snapshot version stamped
//	                                 into its stats (range and batch kNN
//	                                 accept live=1 / "live":true too)
//	GET  /watch?q=V&k=K              continuous kNN: NDJSON delta stream,
//	                                 one line per top-k change
//	GET  /stats                      build, buffer-pool, and server counters
//	                                 plus per-endpoint latency quantiles
//	GET  /metrics                    Prometheus text exposition: the
//	                                 engine's silc_* families plus the
//	                                 server's silcserve_* request metrics
//	GET  /debug/pprof/*              Go runtime profiles (Config.Pprof)
//	GET  /healthz                    liveness probe
//	GET  /readyz                     readiness probe: 503 while draining
//
// Without a live world every live surface answers 404. A bad parameter or
// body is a 400 with a JSON {"error": …}; ids and vertices are 32-bit.
//
// A cluster node (Config.Node) serves its cell RPC surface instead of the
// query API, behind the same /metrics, pprof and drain path. Every handler
// threads its request context into the engine, so a client disconnect or
// the Config.Timeout deadline cancels the search itself within one
// refinement step. Config.SlowLog gets one NDJSON line, with the query's
// own statistics, per request slower than its threshold.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"silc"
	"silc/internal/obs"
)

// Config is what a server serves and the limits it serves it under.
type Config struct {
	Engine   *silc.Engine      // the query engine (nil for a cluster node)
	Objects  *silc.ObjectSet   // the static object set queries run against
	Live     *silc.LiveObjects // mutable live world (nil: live surfaces 404)
	Node     *silc.ClusterNode // serve this node's cell RPC surface instead of the query API
	Aux      *obs.Registry     // extra /metrics families (router: silc_cluster_*)
	MaxK     int               // largest k (and /browse n) a request may ask for
	MaxBatch int               // largest batch request size
	Timeout  time.Duration     // per-request deadline (0 = none)
	Pprof    bool              // mount /debug/pprof/
	SlowLog  *SlowLog          // slow-query log (nil = none)
}

// Server holds the shared read-only state plus request counters.
type Server struct {
	Config
	started time.Time
	queries atomic.Int64 // logical queries answered (a batch counts each)

	// Server-side metrics live in their own registry: /metrics emits the
	// engine's silc_* families followed by these silcserve_* ones — the
	// family names are disjoint, so the concatenation is a valid text-
	// format exposition.
	reg       *obs.Registry
	inflight  *obs.Gauge
	endpoints map[string]*endpointMetrics
	draining  atomic.Bool // /readyz fails while queries drain
}

type endpointMetrics struct {
	requests *obs.Counter
	latency  *obs.Histogram
}

// New returns a server for c.
func New(c Config) *Server {
	s := &Server{Config: c, started: time.Now(), reg: obs.NewRegistry()}
	s.inflight = s.reg.Gauge("silcserve_inflight_requests", "",
		"HTTP requests currently being handled.")
	s.endpoints = make(map[string]*endpointMetrics)
	// Only the query endpoints are instrumented: scrapes and probes must
	// not pollute the latency distributions.
	for _, name := range []string{"/knn", "/browse", "/distance", "/path", "/range", "/stats", "/objects", "/watch"} {
		label := `endpoint="` + name + `"`
		s.endpoints[name] = &endpointMetrics{
			requests: s.reg.Counter("silcserve_requests_total", label,
				"HTTP requests handled per endpoint."),
			latency: s.reg.Histogram("silcserve_request_seconds", label,
				"HTTP request latency per endpoint."),
		}
	}
	return s
}

// Handler returns the server's routes: the query API (or a node's RPC
// surface), /metrics, and the runtime profiles when enabled.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	if s.Node != nil {
		mux.Handle("/", s.Node.Handler())
	} else {
		handle := func(path string, h http.HandlerFunc) { mux.HandleFunc(path, s.observe(path, h)) }
		// Bodies are capped: parsing must not be the path to memory
		// exhaustion, and ~24 bytes per batched vertex id is generous.
		handle("/knn", s.serveJSON(int64(s.MaxBatch)*24+4096, s.handleKNN))
		handle("/distance", s.serveJSON(0, s.handleDistance))
		handle("/path", s.serveJSON(0, s.handlePath))
		handle("/range", s.serveJSON(0, s.handleRange))
		handle("/stats", s.serveJSON(0, s.handleStats))
		handle("/objects", s.serveJSON(4096, s.handleObjects))
		handle("/browse", s.handleBrowse)
		handle("/watch", s.handleWatch)
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok\n"))
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
			if s.draining.Load() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte("ready\n"))
		})
	}
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// startDrain flips /readyz to 503 so load balancers and the cluster
// router's replica probes steer new work away.
func (s *Server) startDrain() {
	s.draining.Store(true)
	if s.Node != nil {
		s.Node.StartDrain()
	}
}

// Run serves on addr until ctx is done, then drains before it stops:
// /readyz fails, the grace period gives load balancers time to notice, and
// only then does Shutdown close the listener and finish the in-flight
// requests. It returns early only when the listener fails.
func (s *Server) Run(ctx context.Context, addr string, grace time.Duration) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s", addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.startDrain()
	log.Printf("draining: /readyz failing, shutdown in %v", grace)
	time.Sleep(grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("silcserve: shutdown: %v", err)
	}
	return nil
}

// statsCtxKey carries a per-request holder the handler fills with the
// query's own statistics, so the middleware can attach them to slow-log
// entries without re-plumbing every handler signature.
type statsCtxKey struct{}

type statsHolder struct{ st *silc.QueryStats }

// noteStats records one finished query's statistics against the current
// request (for the slow-query log).
func noteStats(r *http.Request, st silc.QueryStats) {
	if h, ok := r.Context().Value(statsCtxKey{}).(*statsHolder); ok {
		h.st = &st
	}
}

// observe is the request middleware: it bumps the counters, observes the
// endpoint's latency histogram, applies the Timeout deadline to the request
// context — so a slow query is cancelled inside the engine rather than left
// running after the client gave up — and appends a slow-log entry when the
// request crosses the threshold.
// (http.TimeoutHandler is unsuitable here: it buffers responses, which
// would break /browse streaming.)
func (s *Server) observe(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Inc()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		ctx := r.Context()
		if s.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.Timeout)
			defer cancel()
		}
		holder := &statsHolder{}
		r = r.WithContext(context.WithValue(ctx, statsCtxKey{}, holder))
		start := time.Now()
		h(w, r)
		d := time.Since(start)
		em.latency.Observe(d)
		if s.SlowLog != nil && d >= s.SlowLog.threshold {
			s.SlowLog.record(endpoint, r, d, holder.st)
		}
	}
}

// answer is a JSON handler's reply: the body, how many logical queries it
// answered, and — for a single query — that query's statistics, which the
// body carries too.
type answer struct {
	body    reply
	queries int
	stats   *silc.QueryStats
}

// answered is the reply to one query.
func answered(body reply, st *silc.QueryStats) answer {
	return answer{body: body, queries: 1, stats: st}
}

// serveJSON adapts a JSON handler: it caps the request body at maxBody,
// maps an error to its status, counts the queries an answer reports and
// notes its statistics for the slow-query log, and writes the reply.
func (s *Server) serveJSON(maxBody int64, h func(*http.Request) (answer, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if maxBody > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		a, err := h(r)
		if err != nil {
			writeError(w, err)
			return
		}
		s.queries.Add(int64(a.queries))
		if a.stats != nil {
			noteStats(r, *a.stats)
		}
		if err := writeReply(w, a.body); err != nil {
			writeError(w, err)
		}
	}
}

// handleMetrics serves the Prometheus text exposition: engine families
// first (silc_engine_*, silc_knn_*, silc_diskio_*, silc_store_*,
// silc_partition_*), then the server's silcserve_* request metrics; a node
// writes its engine's families and its silcnode_* RPC metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.Node != nil {
		s.Node.WriteMetrics(w)
		return
	}
	if err := s.Engine.WriteMetrics(w); err != nil {
		return // client went away mid-scrape; nothing to salvage
	}
	regs := []*obs.Registry{s.Aux}
	if s.Live != nil {
		regs = append(regs, s.Live.Registry())
	}
	for _, reg := range append(regs, s.reg) {
		if reg != nil && reg.WritePrometheus(w) != nil {
			return
		}
	}
}

// SlowLog appends one NDJSON entry per slow request. Writes are serialized
// under a mutex — slow requests are rare by definition, so contention here
// is negligible.
type SlowLog struct {
	mu        sync.Mutex
	f         *os.File
	enc       *json.Encoder
	threshold time.Duration
}

// OpenSlowLog appends entries for requests of at least threshold to path.
func OpenSlowLog(path string, threshold time.Duration) (*SlowLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("slowlog: %w", err)
	}
	return &SlowLog{f: f, enc: json.NewEncoder(f), threshold: threshold}, nil
}

// Close closes the log file.
func (l *SlowLog) Close() error { return l.f.Close() }

func (l *SlowLog) record(endpoint string, r *http.Request, d time.Duration, st *silc.QueryStats) {
	entry := map[string]any{
		"ts":          time.Now().UTC().Format(time.RFC3339Nano),
		"endpoint":    endpoint,
		"method":      r.Method,
		"query":       r.URL.RawQuery,
		"duration_us": d.Microseconds(),
	}
	if st != nil {
		entry["stats"] = toStats(*st)
	}
	l.mu.Lock()
	l.enc.Encode(entry)
	l.mu.Unlock()
}

type httpError struct {
	status int
	msg    string
}

func (e httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) httpError {
	return httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeError maps an error to its HTTP status: the engine's typed
// validation errors and explicit httpErrors are 400s, a request-timeout
// deadline is 503, a client disconnect (context.Canceled) gets no response
// at all — nobody is listening.
func writeError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) {
		return
	}
	status := http.StatusInternalServerError
	var he httpError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
	case errors.Is(err, silc.ErrUnknownObject):
		status = http.StatusNotFound
	case errors.Is(err, silc.ErrVertexRange),
		errors.Is(err, silc.ErrBadK),
		errors.Is(err, silc.ErrBadRadius),
		errors.Is(err, silc.ErrBadEpsilon),
		errors.Is(err, silc.ErrBadMethod),
		errors.Is(err, silc.ErrNilObjects),
		errors.Is(err, silc.ErrEmptyObjects):
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
