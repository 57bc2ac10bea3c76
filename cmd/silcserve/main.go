// Command silcserve serves network-distance queries over HTTP/JSON from one
// shared SILC index — the "heavy traffic" deployment the concurrent query
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
//	GET  /distance?src=U&dst=V       exact network distance
//	GET  /path?src=U&dst=V           exact shortest path
//	GET  /range?q=V&radius=R[&exact=1]
//	                                 objects within network distance R
//
// With -live the server additionally owns a mutable object world (seeded
// from the startup object set) whose mutations never touch the index:
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
//	GET  /debug/pprof/*              Go runtime profiles (with -pprof)
//	GET  /healthz                    liveness probe
//	GET  /readyz                     readiness probe: 503 while draining
//
// On SIGTERM/SIGINT the server drains before it stops: /readyz flips to 503
// so load balancers and the cluster router's health probes steer new work
// away, -drain-grace elapses, and only then does the listener close and
// http.Server.Shutdown finish the in-flight requests.
//
// Cluster modes (-cluster, with -manifest): "node" serves the internal
// cell RPC surface for the cells the manifest assigns -node-name — the
// demand-paged index means only those cells' pages ever materialize —
// while "router" serves this same public query API statelessly, holding
// only the index metadata (network, cell labels, boundary closure) and
// fanning per-cell work out to the owning nodes. Router answers are
// bit-identical to a monolithic server over the same index.
//
// The engine runs with tracing enabled, so per-query filter/refinement
// phase timings feed the silc_knn_*_seconds_total counters and the
// structured slow-query log: -slowlog FILE appends one NDJSON line per
// request slower than -slow-threshold, carrying the endpoint, raw query,
// wall time, and the query's own statistics (refinements, page traffic,
// phase split).
//
// Every handler threads its request context into the query engine, so a
// client disconnect or the -request-timeout deadline cancels the in-flight
// search itself — refinement stops within one step — not just the response
// writes.
//
// The index is either opened (-index, a paged image produced by silcbuild;
// the format is sniffed, the network is embedded, and queries serve
// straight from disk through a buffer pool of -cache-fraction of its pages
// — 1 sizes the pool to the whole image) or built in RAM at startup from a
// generated road network — sharded when -partitions N > 1. The
// query-object set defaults to a random sample of vertices
// (-object-fraction) or is read from -objects, one vertex id per line. All
// queries run concurrently over one shared index; batch requests
// additionally fan out over a bounded worker pool.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"silc"
	"silc/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		networkPath = flag.String("network", "", "network file (silcbuild text format); empty = generate")
		indexPath   = flag.String("index", "", "prebuilt paged index image from silcbuild -o (embeds the network; a -network given too is cross-checked)")
		rows        = flag.Int("rows", 64, "generated network rows (when no -network)")
		cols        = flag.Int("cols", 64, "generated network cols")
		seed        = flag.Int64("seed", 1, "generated network seed")
		mmap        = flag.Bool("mmap", false, "open paged index files through a read-only memory mapping (falls back to positioned reads where unsupported)")
		cacheFrac   = flag.Float64("cache-fraction", 0.05, "buffer-pool size of a paged -index, as a fraction of its total pages")
		objectsPath = flag.String("objects", "", "object vertices file, one id per line; empty = random sample")
		objectFrac  = flag.Float64("object-fraction", 0.05, "fraction of vertices carrying an object (when no -objects)")
		objectSeed  = flag.Int64("object-seed", 2008, "object sample seed")
		liveOn      = flag.Bool("live", false, "serve a mutable live object world (/objects, /watch, live=1 queries), seeded from the startup objects")
		liveTTL     = flag.Duration("live-ttl", 0, "expire live objects not inserted/moved within this duration (0 = never)")
		partitions  = flag.Int("partitions", 1, "spatial partitions (>1 builds/serves the sharded index)")
		maxK        = flag.Int("max-k", 1000, "largest k a request may ask for")
		maxBatch    = flag.Int("max-batch", 10000, "largest batch request size")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline cancelling in-flight queries (0 = none)")
		pprofOn     = flag.Bool("pprof", false, "serve Go runtime profiles under /debug/pprof/")
		slowlogPath = flag.String("slowlog", "", "append slow-query NDJSON entries to this file (empty = disabled)")
		slowThresh  = flag.Duration("slow-threshold", 100*time.Millisecond, "minimum request latency for a -slowlog entry")

		clusterMode   = flag.String("cluster", "", `cluster role: "node" (serve owned cells' RPC surface) or "router" (stateless query router); empty = standalone`)
		manifestPath  = flag.String("manifest", "", "cluster manifest JSON file (required with -cluster)")
		nodeName      = flag.String("node-name", "", "this node's name in the manifest (required with -cluster node)")
		drainGrace    = flag.Duration("drain-grace", 5*time.Second, "on SIGTERM, time between failing /readyz and closing the listener")
		probeInterval = flag.Duration("probe-interval", time.Second, "router: how often to re-probe failed replicas on /readyz")
		readyWait     = flag.Duration("ready-wait", 30*time.Second, "router: how long to wait at startup for every manifest node's /readyz")
	)
	flag.Parse()

	switch *clusterMode {
	case "node":
		runClusterNode(*addr, *manifestPath, *nodeName, *indexPath, silc.ShardedBuildOptions{
			CacheFraction: *cacheFrac,
			Mmap:          *mmap,
		}, *drainGrace, *pprofOn)
		return
	case "router", "":
	default:
		log.Fatalf("silcserve: unknown -cluster %q (node, router)", *clusterMode)
	}

	var (
		net    *silc.Network
		eng    *silc.Engine
		router *silc.ClusterRouter
		err    error
	)
	if *clusterMode == "router" {
		router, err = openRouter(*manifestPath, *indexPath, *readyWait)
		if err != nil {
			log.Fatalf("silcserve: %v", err)
		}
		eng = router.Engine()
		net = eng.Network()
	} else {
		net, eng, err = loadOrBuild(*networkPath, *indexPath, *rows, *cols, *seed, *partitions, silc.BuildOptions{
			CacheFraction: *cacheFrac,
			Mmap:          *mmap,
		})
		if err != nil {
			log.Fatalf("silcserve: %v", err)
		}
	}
	objs, objVertices, err := loadObjects(net, *objectsPath, *objectFrac, *objectSeed)
	if err != nil {
		log.Fatalf("silcserve: %v", err)
	}
	nObjs := len(objVertices)
	if sx, ok := eng.Sharded(); ok {
		st := sx.Stats()
		log.Printf("serving %d vertices, %d edges, %d objects (%d partitions, %d boundary vertices)",
			st.Vertices, st.Edges, nObjs, st.Partitions, st.BoundaryVertices)
	} else if mono, ok := eng.Monolithic(); ok {
		st := mono.Stats()
		log.Printf("serving %d vertices, %d edges, %d objects (%.1f blocks/vertex)",
			st.Vertices, st.Edges, nObjs, st.BlocksPerVertex())
	}

	// Tracing stamps each query's filter/refinement phase split onto its
	// span — the serving deployment trades the extra clock reads for
	// phase-attributed metrics and slow-log entries.
	eng.SetTracing(true)

	s := newServer(eng, objs, *maxK, *maxBatch)
	s.timeout = *reqTimeout
	s.pprof = *pprofOn
	if *liveOn {
		live, err := silc.NewLiveObjects(net, silc.LiveObjectsOptions{TTL: *liveTTL})
		if err != nil {
			log.Fatalf("silcserve: %v", err)
		}
		defer live.Close()
		for _, v := range objVertices {
			live.Insert(v)
		}
		s.live = live
		log.Printf("live object world: %d objects seeded (ttl %v)", live.Len(), *liveTTL)
	}
	if router != nil {
		s.aux = router.Registry() // adds the silc_cluster_* families to /metrics
		probeCtx, stopProbing := context.WithCancel(context.Background())
		defer stopProbing()
		router.StartProbing(probeCtx, *probeInterval)
	}
	if *slowlogPath != "" {
		slow, err := openSlowLog(*slowlogPath, *slowThresh)
		if err != nil {
			log.Fatalf("silcserve: %v", err)
		}
		defer slow.Close()
		s.slow = slow
		log.Printf("slow-query log: %s (threshold %v)", *slowlogPath, *slowThresh)
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	serveAndDrain(httpServer, *drainGrace, func() { s.draining.Store(true) })
}

// serveAndDrain runs the server until SIGTERM/SIGINT, then drains before
// stopping: onDrain flips /readyz to 503 so load balancers (and the cluster
// router's replica probes) steer new work away, the grace period gives them
// time to notice, and only then does Shutdown close the listener and finish
// the in-flight requests.
func serveAndDrain(srv *http.Server, grace time.Duration, onDrain func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s", srv.Addr)

	select {
	case err := <-errc:
		log.Fatalf("silcserve: %v", err)
	case <-ctx.Done():
	}
	onDrain()
	log.Printf("draining: /readyz failing, shutdown in %v", grace)
	time.Sleep(grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("silcserve: shutdown: %v", err)
	}
}

// runClusterNode is the -cluster node main: open the shared paged index,
// bind this node's manifest entry, and serve the internal RPC surface until
// a drain-then-shutdown signal. Only the owned cells' pages ever
// materialize, so a node's memory footprint is its share of the database,
// not the whole file.
func runClusterNode(addr, manifestPath, name, indexPath string, opts silc.ShardedBuildOptions, grace time.Duration, pprofOn bool) {
	m, indexPath, err := loadManifest(manifestPath, indexPath)
	if err != nil {
		log.Fatalf("silcserve: %v", err)
	}
	if name == "" {
		log.Fatal("silcserve: -cluster node requires -node-name")
	}
	ix, err := silc.OpenShardedIndex(indexPath, opts)
	if err != nil {
		log.Fatalf("silcserve: open index: %v", err)
	}
	node, err := silc.NewClusterNode(ix, m, name)
	if err != nil {
		log.Fatalf("silcserve: %v", err)
	}
	defer node.Close()
	spec := m.Node(name)
	log.Printf("cluster node %s serving cells %v of %s", name, spec.Cells, indexPath)

	httpServer := &http.Server{
		Addr:              addr,
		Handler:           nodeRoutes(node, pprofOn),
		ReadHeaderTimeout: 5 * time.Second,
	}
	serveAndDrain(httpServer, grace, node.StartDrain)
}

// nodeRoutes is the -cluster node mux: the node's RPC and health surface,
// a /metrics that prepends the engine's silc_* families to the node
// handler's own silcnode_* ones, and the runtime profiles under -pprof.
func nodeRoutes(node *silc.ClusterNode, pprofOn bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", node.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		node.WriteMetrics(w)
	})
	if pprofOn {
		mountPprof(mux)
	}
	return mux
}

// mountPprof serves the Go runtime profiles under /debug/pprof/.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// openRouter is the -cluster router setup: read the index metadata (no cell
// pages), wire the RPC client over the manifest, and wait for every node's
// /readyz so the router never serves ahead of its backends.
func openRouter(manifestPath, indexPath string, readyWait time.Duration) (*silc.ClusterRouter, error) {
	m, indexPath, err := loadManifest(manifestPath, indexPath)
	if err != nil {
		return nil, err
	}
	router, err := silc.OpenClusterRouter(indexPath, m, silc.ClusterRouterOptions{})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(readyWait)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err = router.Ready(ctx)
		cancel()
		if err == nil {
			return router, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster not ready after %v: %w", readyWait, err)
		}
		log.Printf("waiting for cluster: %v", err)
		time.Sleep(500 * time.Millisecond)
	}
}

// loadManifest reads the cluster manifest and resolves the index path:
// -index overrides the manifest's own index entry.
func loadManifest(manifestPath, indexPath string) (*silc.ClusterManifest, string, error) {
	if manifestPath == "" {
		return nil, "", errors.New("-cluster requires -manifest")
	}
	m, err := silc.LoadClusterManifest(manifestPath)
	if err != nil {
		return nil, "", err
	}
	if indexPath == "" {
		indexPath = m.Index
	}
	if indexPath == "" {
		return nil, "", errors.New("no index: pass -index or set the manifest's \"index\"")
	}
	return m, indexPath, nil
}

func loadOrBuild(networkPath, indexPath string, rows, cols int, seed int64, partitions int, opts silc.BuildOptions) (*silc.Network, *silc.Engine, error) {
	var net *silc.Network
	var err error
	if networkPath != "" {
		f, err := os.Open(networkPath)
		if err != nil {
			return nil, nil, err
		}
		net, err = silc.LoadNetwork(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("load network: %w", err)
		}
	} else if indexPath == "" {
		net, err = silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
	}
	if indexPath != "" {
		// OpenEngine sniffs which of the four paged formats (SILCPG1/2,
		// SILCSPG1/2) the file holds; all are self-contained and
		// demand-paged, so net may be nil.
		eng, err := silc.OpenEngine(indexPath, net, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("load index: %w", err)
		}
		return eng.Network(), eng, nil
	}
	if partitions > 1 {
		log.Printf("building sharded index over %d vertices (%d partitions)...", net.NumVertices(), partitions)
		sx, err := silc.BuildShardedIndex(net, silc.ShardedBuildOptions{Partitions: partitions})
		if err != nil {
			return nil, nil, err
		}
		return net, sx.Engine(), nil
	}
	log.Printf("building index over %d vertices...", net.NumVertices())
	ix, err := silc.BuildIndex(net, opts)
	if err != nil {
		return nil, nil, err
	}
	return net, ix.Engine(), nil
}

func loadObjects(net *silc.Network, path string, fraction float64, seed int64) (*silc.ObjectSet, []silc.VertexID, error) {
	var vs []silc.VertexID
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		for _, line := range strings.Fields(string(data)) {
			id, err := strconv.Atoi(line)
			if err != nil || id < 0 || id >= net.NumVertices() {
				return nil, nil, fmt.Errorf("bad object vertex %q", line)
			}
			vs = append(vs, silc.VertexID(id))
		}
	} else {
		n := net.NumVertices()
		m := int(math.Round(fraction * float64(n)))
		if m < 1 {
			m = 1
		}
		if m > n {
			m = n
		}
		perm := rand.New(rand.NewSource(seed)).Perm(n)
		for _, v := range perm[:m] {
			vs = append(vs, silc.VertexID(v))
		}
	}
	objs, err := silc.NewObjectSet(net, vs)
	if err != nil {
		return nil, nil, err
	}
	return objs, vs, nil
}

// server holds the shared read-only state plus request counters.
type server struct {
	eng      *silc.Engine
	objs     *silc.ObjectSet
	live     *silc.LiveObjects // mutable live world (-live; nil otherwise)
	maxK     int
	maxBatch int
	timeout  time.Duration // per-request deadline (0 = none)
	pprof    bool          // mount /debug/pprof/
	started  time.Time
	requests atomic.Int64
	queries  atomic.Int64 // logical queries answered (a batch counts each)

	// Server-side metrics live in their own registry: /metrics emits the
	// engine's silc_* families followed by these silcserve_* ones — the
	// family names are disjoint, so the concatenation is a valid text-
	// format exposition.
	reg       *obs.Registry
	aux       *obs.Registry // extra /metrics families (router: silc_cluster_*)
	inflight  *obs.Gauge
	endpoints map[string]*endpointMetrics
	slow      *slowLog
	draining  atomic.Bool // set on SIGTERM: /readyz fails while queries drain
}

// endpointMetrics is one HTTP endpoint's request counter and latency
// histogram.
type endpointMetrics struct {
	requests *obs.Counter
	latency  *obs.Histogram
}

// endpointNames lists the instrumented query endpoints; /metrics and
// /healthz are deliberately excluded so scrapes and probes don't pollute
// the latency distributions.
var endpointNames = []string{"/knn", "/browse", "/distance", "/path", "/range", "/stats", "/objects", "/watch"}

func newServer(eng *silc.Engine, objs *silc.ObjectSet, maxK, maxBatch int) *server {
	s := &server{eng: eng, objs: objs, maxK: maxK, maxBatch: maxBatch, started: time.Now()}
	s.reg = obs.NewRegistry()
	s.inflight = s.reg.Gauge("silcserve_inflight_requests", "",
		"HTTP requests currently being handled.")
	s.endpoints = make(map[string]*endpointMetrics, len(endpointNames))
	for _, name := range endpointNames {
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

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/knn", s.observe("/knn", s.handleKNN))
	mux.HandleFunc("/browse", s.observe("/browse", s.handleBrowse))
	mux.HandleFunc("/distance", s.observe("/distance", s.handleDistance))
	mux.HandleFunc("/path", s.observe("/path", s.handlePath))
	mux.HandleFunc("/range", s.observe("/range", s.handleRange))
	mux.HandleFunc("/stats", s.observe("/stats", s.handleStats))
	mux.HandleFunc("/objects", s.observe("/objects", s.handleObjects))
	mux.HandleFunc("/watch", s.observe("/watch", s.handleWatch))
	mux.HandleFunc("/metrics", s.handleMetrics)
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
	if s.pprof {
		mountPprof(mux)
	}
	return mux
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
// endpoint's latency histogram, applies the -request-timeout deadline to
// the request context — so a slow query is cancelled inside the engine
// rather than left running after the client gave up — and appends a
// slow-log entry when the request crosses the threshold.
// (http.TimeoutHandler is unsuitable here: it buffers responses, which
// would break /browse streaming.)
func (s *server) observe(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		em.requests.Inc()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		ctx := r.Context()
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}
		holder := &statsHolder{}
		r = r.WithContext(context.WithValue(ctx, statsCtxKey{}, holder))
		start := time.Now()
		h(w, r)
		d := time.Since(start)
		em.latency.Observe(d)
		if s.slow != nil && d >= s.slow.threshold {
			s.slow.record(endpoint, r, d, holder.st)
		}
	}
}

// handleMetrics serves the Prometheus text exposition: engine families
// first (silc_engine_*, silc_knn_*, silc_diskio_*, silc_store_*,
// silc_partition_*), then the server's silcserve_* request metrics.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.eng.WriteMetrics(w); err != nil {
		return // client went away mid-scrape; nothing to salvage
	}
	if s.aux != nil {
		if err := s.aux.WritePrometheus(w); err != nil {
			return
		}
	}
	if s.live != nil {
		if err := s.live.Registry().WritePrometheus(w); err != nil {
			return
		}
	}
	s.reg.WritePrometheus(w)
}

// slowLog appends one NDJSON entry per slow request. Writes are
// serialized under a mutex — slow requests are rare by definition, so
// contention here is negligible.
type slowLog struct {
	mu        sync.Mutex
	f         *os.File
	enc       *json.Encoder
	threshold time.Duration
}

func openSlowLog(path string, threshold time.Duration) (*slowLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("slowlog: %w", err)
	}
	return &slowLog{f: f, enc: json.NewEncoder(f), threshold: threshold}, nil
}

func (l *slowLog) Close() error { return l.f.Close() }

func (l *slowLog) record(endpoint string, r *http.Request, d time.Duration, st *silc.QueryStats) {
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
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

func (s *server) vertexParam(r *http.Request, name string) (silc.VertexID, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, badRequest("missing parameter %q", name)
	}
	id, err := strconv.Atoi(raw)
	if err != nil || id < 0 || id >= s.eng.Network().NumVertices() {
		return 0, badRequest("parameter %q: not a vertex id in [0,%d)", name, s.eng.Network().NumVertices())
	}
	return silc.VertexID(id), nil
}

// epsParam parses the optional ε-approximation parameter.
func epsParam(raw string) (float64, error) {
	if raw == "" {
		return 0, nil
	}
	eps, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
		return 0, badRequest("parameter eps must be a finite non-negative number")
	}
	return eps, nil
}

// maxDistParam parses the optional hybrid-query distance bound.
func maxDistParam(raw string) (float64, error) {
	if raw == "" {
		return 0, nil
	}
	d, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(d) || d < 0 {
		return 0, badRequest("parameter max_dist must be a non-negative number")
	}
	return d, nil
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

func toNeighbors(ns []silc.Neighbor) []neighborJSON {
	out := make([]neighborJSON, len(ns))
	for i, n := range ns {
		out[i] = neighborJSON{ID: n.ID, Vertex: int64(n.Vertex), Dist: n.Dist, Exact: n.Exact}
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

// knnOptions assembles the query options shared by the GET and POST forms.
func knnOptions(method silc.Method, eps, maxDist float64, exact bool) []silc.Option {
	opts := []silc.Option{silc.WithMethod(method)}
	if eps > 0 {
		opts = append(opts, silc.WithEpsilon(eps))
	}
	if maxDist > 0 {
		opts = append(opts, silc.WithMaxDistance(maxDist))
	}
	if exact {
		opts = append(opts, silc.WithExactDistances())
	}
	return opts
}

// exactParam parses the optional exact-distances toggle.
func exactParam(raw string) (bool, error) {
	switch raw {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	}
	return false, badRequest("parameter exact must be 0/1/true/false")
}

func (s *server) handleKNN(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleKNNBatch(w, r)
		return
	}
	q, err := s.vertexParam(r, "q")
	if err != nil {
		writeError(w, err)
		return
	}
	k, err := s.kParam(r.URL.Query().Get("k"))
	if err != nil {
		writeError(w, err)
		return
	}
	method, err := silc.ParseMethod(r.URL.Query().Get("method"))
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	eps, err := epsParam(r.URL.Query().Get("eps"))
	if err != nil {
		writeError(w, err)
		return
	}
	maxDist, err := maxDistParam(r.URL.Query().Get("max_dist"))
	if err != nil {
		writeError(w, err)
		return
	}
	exact, err := exactParam(r.URL.Query().Get("exact"))
	if err != nil {
		writeError(w, err)
		return
	}
	objs, err := s.querySet(r.URL.Query().Get("live"))
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.eng.Query(r.Context(), objs, q, k, knnOptions(method, eps, maxDist, exact)...)
	if err != nil {
		writeError(w, err)
		return
	}
	s.queries.Add(1)
	noteStats(r, res.Stats)
	writeJSON(w, map[string]any{
		"query":     int64(q),
		"k":         k,
		"sorted":    res.Sorted,
		"neighbors": toNeighbors(res.Neighbors),
		"stats":     toStats(res.Stats),
	})
}

func (s *server) kParam(raw string) (int, error) {
	if raw == "" {
		return 0, badRequest("missing parameter %q", "k")
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 || k > s.maxK {
		return 0, badRequest("parameter k must be in [1,%d]", s.maxK)
	}
	return k, nil
}

type batchRequest struct {
	Queries []int64 `json:"queries"`
	K       int     `json:"k"`
	Method  string  `json:"method"`
	Eps     float64 `json:"eps"`
	MaxDist float64 `json:"max_dist"`
	Exact   bool    `json:"exact"`
	Live    bool    `json:"live"`
}

func (s *server) handleKNNBatch(w http.ResponseWriter, r *http.Request) {
	// Bound the body before decoding: ~24 bytes per vertex id is generous,
	// and parsing must not be the path to memory exhaustion.
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.maxBatch)*24+4096)
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, badRequest("bad JSON body: %v", err))
		return
	}
	if len(req.Queries) == 0 || len(req.Queries) > s.maxBatch {
		writeError(w, badRequest("batch size must be in [1,%d]", s.maxBatch))
		return
	}
	if req.K < 1 || req.K > s.maxK {
		writeError(w, badRequest("k must be in [1,%d]", s.maxK))
		return
	}
	method, err := silc.ParseMethod(req.Method)
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	if math.IsNaN(req.Eps) || math.IsInf(req.Eps, 0) || req.Eps < 0 {
		writeError(w, badRequest("eps must be a finite non-negative number"))
		return
	}
	if math.IsNaN(req.MaxDist) || req.MaxDist < 0 {
		writeError(w, badRequest("max_dist must be a non-negative number"))
		return
	}
	objs := s.objs
	if req.Live {
		var err error
		if objs, err = s.liveView(); err != nil {
			writeError(w, err)
			return
		}
	}
	queries := make([]silc.VertexID, len(req.Queries))
	for i, v := range req.Queries {
		queries[i] = silc.VertexID(v)
	}
	batch, err := s.eng.QueryBatch(r.Context(), objs, queries, req.K,
		knnOptions(method, req.Eps, req.MaxDist, req.Exact)...)
	if err != nil {
		writeError(w, err)
		return
	}
	s.queries.Add(int64(len(queries)))
	results := make([]map[string]any, len(batch.Results))
	for i, res := range batch.Results {
		results[i] = map[string]any{
			"query":     req.Queries[i],
			"sorted":    res.Sorted,
			"neighbors": toNeighbors(res.Neighbors),
			"stats":     toStats(res.Stats),
		}
	}
	writeJSON(w, map[string]any{
		"k":       req.K,
		"results": results,
		"batch": map[string]any{
			"queries":      batch.Stats.Queries,
			"failed":       batch.Stats.Failed,
			"skipped":      batch.Stats.Skipped,
			"workers":      batch.Stats.Workers,
			"wall_us":      batch.Stats.Wall.Microseconds(),
			"qps":          batch.Stats.QPS,
			"total_cpu_us": batch.Stats.TotalCPU.Microseconds(),
			"page_hits":    batch.Stats.PageHits,
			"page_misses":  batch.Stats.PageMisses,
		},
	})
}

func (s *server) handleDistance(w http.ResponseWriter, r *http.Request) {
	src, err := s.vertexParam(r, "src")
	if err != nil {
		writeError(w, err)
		return
	}
	dst, err := s.vertexParam(r, "dst")
	if err != nil {
		writeError(w, err)
		return
	}
	var st silc.QueryStats
	d, err := s.eng.Distance(r.Context(), src, dst, silc.WithStats(&st))
	if err != nil {
		writeError(w, err)
		return
	}
	s.queries.Add(1)
	noteStats(r, st)
	resp := map[string]any{
		"src":       int64(src),
		"dst":       int64(dst),
		"reachable": !math.IsInf(d, 1),
		"stats":     toStats(st),
	}
	if !math.IsInf(d, 1) {
		resp["distance"] = d
	}
	writeJSON(w, resp)
}

func (s *server) handlePath(w http.ResponseWriter, r *http.Request) {
	src, err := s.vertexParam(r, "src")
	if err != nil {
		writeError(w, err)
		return
	}
	dst, err := s.vertexParam(r, "dst")
	if err != nil {
		writeError(w, err)
		return
	}
	var st silc.QueryStats
	path, err := s.eng.ShortestPath(r.Context(), src, dst, silc.WithStats(&st))
	if err != nil {
		writeError(w, err)
		return
	}
	s.queries.Add(1)
	noteStats(r, st)
	if path == nil {
		writeJSON(w, map[string]any{"src": int64(src), "dst": int64(dst), "reachable": false, "stats": toStats(st)})
		return
	}
	ids := make([]int64, len(path))
	for i, v := range path {
		ids[i] = int64(v)
	}
	writeJSON(w, map[string]any{
		"src":       int64(src),
		"dst":       int64(dst),
		"reachable": true,
		"distance":  pathCost(s.eng.Network(), path),
		"path":      ids,
		"stats":     toStats(st),
	})
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

func (s *server) handleRange(w http.ResponseWriter, r *http.Request) {
	q, err := s.vertexParam(r, "q")
	if err != nil {
		writeError(w, err)
		return
	}
	radius, err := strconv.ParseFloat(r.URL.Query().Get("radius"), 64)
	if err != nil || radius < 0 || math.IsInf(radius, 0) || math.IsNaN(radius) {
		writeError(w, badRequest("parameter radius must be a non-negative number"))
		return
	}
	exact, err := exactParam(r.URL.Query().Get("exact"))
	if err != nil {
		writeError(w, err)
		return
	}
	objs, err := s.querySet(r.URL.Query().Get("live"))
	if err != nil {
		writeError(w, err)
		return
	}
	var opts []silc.Option
	if exact {
		opts = append(opts, silc.WithExactDistances())
	}
	res, err := s.eng.WithinDistance(r.Context(), objs, q, radius, opts...)
	if err != nil {
		writeError(w, err)
		return
	}
	s.queries.Add(1)
	noteStats(r, res.Stats)
	writeJSON(w, map[string]any{
		"query":     int64(q),
		"radius":    radius,
		"count":     len(res.Neighbors),
		"neighbors": toNeighbors(res.Neighbors),
		"stats":     toStats(res.Stats),
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	var index map[string]any
	if sx, ok := s.eng.Sharded(); ok {
		st := sx.Stats()
		index = map[string]any{
			"vertices":          st.Vertices,
			"edges":             st.Edges,
			"partitions":        st.Partitions,
			"boundary_vertices": st.BoundaryVertices,
			"cut_edges":         st.CutEdges,
			"self_contained":    st.SelfContained,
			"total_blocks":      st.CellBlocks,
			"cell_bytes":        st.CellBytes,
			"closure_bytes":     st.ClosureBytes,
			"total_bytes":       st.TotalBytes,
			"build_time_ms":     st.BuildTime.Milliseconds(),
		}
	} else if mono, ok := s.eng.Monolithic(); ok {
		st := mono.Stats()
		index = map[string]any{
			"vertices":          st.Vertices,
			"edges":             st.Edges,
			"total_blocks":      st.TotalBlocks,
			"total_bytes":       st.TotalBytes,
			"blocks_per_vertex": st.BlocksPerVertex(),
			"build_time_ms":     st.BuildTime.Milliseconds(),
			"radius":            mono.Radius(),
		}
	}
	io := s.eng.IOStats()
	endpoints := make(map[string]any, len(s.endpoints))
	for name, em := range s.endpoints {
		n := em.latency.Count()
		if n == 0 {
			continue
		}
		endpoints[name] = map[string]any{
			"requests": em.requests.Value(),
			"p50_us":   em.latency.Quantile(0.50).Microseconds(),
			"p90_us":   em.latency.Quantile(0.90).Microseconds(),
			"p99_us":   em.latency.Quantile(0.99).Microseconds(),
		}
	}
	var live map[string]any
	if s.live != nil {
		live = map[string]any{
			"objects": s.live.Len(),
			"version": s.live.Version(),
		}
	}
	writeJSON(w, map[string]any{
		"index":   index,
		"objects": s.objs.Len(),
		"live":    live,
		"pool": map[string]any{
			"page_hits":           io.PageHits,
			"page_misses":         io.PageMisses,
			"page_reads":          io.PageReads,
			"measured_io_time_us": io.MeasuredIOTime.Microseconds(),
		},
		"server": map[string]any{
			"uptime_s":  int64(time.Since(s.started).Seconds()),
			"requests":  s.requests.Load(),
			"queries":   s.queries.Load(),
			"inflight":  s.inflight.Value(),
			"tracing":   s.eng.TracingEnabled(),
			"endpoints": endpoints,
		},
	})
}

// handleBrowse streams incremental distance browsing — the paper's headline
// operation — over HTTP, directly from the Engine.Neighbors iterator: the
// first n neighbors of src, one NDJSON line per neighbor, flushed as each
// is produced so clients consume the stream while the cursor is still
// working. The (k+1)st line costs only the incremental search. A client
// disconnect (or the request timeout) cancels the in-flight search itself,
// not just the writes.
func (s *server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	src, err := s.vertexParam(r, "src")
	if err != nil {
		writeError(w, err)
		return
	}
	n := 10
	if n > s.maxK {
		n = s.maxK // the -max-k cap applies to the default too
	}
	if raw := r.URL.Query().Get("n"); raw != "" {
		n, err = strconv.Atoi(raw)
		if err != nil || n < 1 || n > s.maxK {
			writeError(w, badRequest("parameter n must be in [1,%d]", s.maxK))
			return
		}
	}
	eps, err := epsParam(r.URL.Query().Get("eps"))
	if err != nil {
		writeError(w, err)
		return
	}
	var st silc.QueryStats
	opts := []silc.Option{silc.WithStats(&st)}
	if eps > 0 {
		opts = append(opts, silc.WithEpsilon(eps))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	streamed := 0
	for nb, err := range s.eng.Neighbors(r.Context(), s.objs, src, opts...) {
		if err != nil {
			// Disconnect, timeout, or bad argument: the search is already
			// cancelled; tell anyone still listening why the stream ended.
			s.queries.Add(1)
			enc.Encode(map[string]any{"error": err.Error(), "streamed": streamed})
			return
		}
		if err := enc.Encode(map[string]any{
			"rank":   streamed + 1,
			"id":     nb.ID,
			"vertex": int64(nb.Vertex),
			"dist":   nb.Dist,
			"exact":  nb.Exact,
		}); err != nil {
			s.queries.Add(1)
			return // write failed (disconnect): stop streaming
		}
		if flusher != nil {
			flusher.Flush()
		}
		if streamed++; streamed >= n {
			break
		}
	}
	enc.Encode(map[string]any{
		"done":     true,
		"streamed": streamed,
		"stats":    toStats(st),
	})
	s.queries.Add(1)
	noteStats(r, st)
}
