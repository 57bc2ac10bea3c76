package silc

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"silc/internal/core"
	"silc/internal/obs"
)

// Engine entry-point tags carried on each query's trace span. The span
// travels with the pooled query context; releaseQC folds it into the
// per-op aggregates below.
const (
	opKNN uint8 = iota
	opRange
	opNeighbors
	opDistance
	opInterval
	opPath
	opIsCloser
	opBatch
	numOps
)

var opNames = [numOps]string{
	"knn", "range", "neighbors", "distance", "interval", "path", "is_closer", "batch",
}

// engineObs holds the engine's metric aggregates and their registry.
// Recording is atomic and allocation-free; everything here is created
// once per Engine at construction.
type engineObs struct {
	reg *obs.Registry
	// timed gates the phase wall-clocks (filter vs refinement) stamped
	// onto each span: the extra time.Now pairs in the expansion loop
	// cost real time against warm in-memory queries, so tracing is an
	// explicit opt-in (Engine.SetTracing; silcserve enables it).
	timed atomic.Bool

	queries [numOps]*obs.Counter
	latency [numOps]*obs.Histogram

	refinements *obs.Counter
	lookups     *obs.Counter
	heapPushes  *obs.Counter
	filterSecs  *obs.Counter // nanos, exported as seconds
	refineSecs  *obs.Counter // nanos, exported as seconds

	pageHits      *obs.Counter
	pageMisses    *obs.Counter
	pageReads     *obs.Counter
	evictions     *obs.Counter
	blocksDecoded *obs.Counter

	crossCell     *obs.Counter
	gatewayRoutes *obs.Counter
}

// newEngineObs builds the aggregate set for e and registers every family,
// in the order the exposition lists them. The engine's index and page
// source are set before it runs; collector closures read their state at
// scrape time.
func newEngineObs(e *Engine) *engineObs {
	m := &engineObs{reg: obs.NewRegistry()}
	r := m.reg
	for op := uint8(0); op < numOps; op++ {
		label := `op="` + opNames[op] + `"`
		m.queries[op] = r.Counter("silc_engine_queries_total", label,
			"Queries completed per engine entry point.")
		m.latency[op] = r.Histogram("silc_engine_query_seconds", label,
			"End-to-end query latency per entry point (acquire to release).")
	}
	r.GaugeFunc("silc_engine_inflight_queries", "",
		"Query contexts currently checked out of the engine pool.",
		func() float64 { return float64(e.qcLive.Load()) })

	m.refinements = r.Counter("silc_knn_refinements_total", "",
		"Distance-refiner steps across all layers (search, exactification, routing).")
	m.lookups = r.Counter("silc_knn_lookups_total", "",
		"Object interval computations in the best-first search.")
	m.heapPushes = r.Counter("silc_knn_heap_pushes_total", "",
		"Search-queue pushes in the best-first family.")
	m.filterSecs = r.CounterScaled("silc_knn_filter_seconds_total", "",
		"Wall-clock seconds in the object-hierarchy filter phase (tracing enabled).", 1e-9)
	m.refineSecs = r.CounterScaled("silc_knn_refine_seconds_total", "",
		"Wall-clock seconds outside the filter phase (tracing enabled).", 1e-9)

	m.pageHits = r.Counter("silc_engine_page_hits_total", "",
		"Buffer-pool hits attributed to completed queries.")
	m.pageMisses = r.Counter("silc_engine_page_misses_total", "",
		"Buffer-pool misses attributed to completed queries.")
	m.pageReads = r.Counter("silc_engine_page_reads_total", "",
		"Real page reads attributed to completed queries (paged stores).")
	m.evictions = r.Counter("silc_engine_pool_evictions_total", "",
		"Pool evictions forced by completed queries.")
	m.blocksDecoded = r.Counter("silc_engine_blocks_decoded_total", "",
		"Quadtree blocks passed through the paged decoder (lookups and tree decodes) by completed queries.")

	m.crossCell = r.Counter("silc_partition_cross_cell_refiners_total", "",
		"Cross-cell route refiners built (sharded indexes).")
	m.gatewayRoutes = r.Counter("silc_partition_gateway_routes_total", "",
		"Candidate gateway routes raced by cross-cell refiners.")

	// Pool-wide diskio families read the pool's aggregates at
	// scrape time — they cover untracked traffic too, so comparing them
	// with the query-attributed silc_engine_* counters above exposes
	// non-query pool pressure.
	r.CounterFunc("silc_diskio_pool_hits_total", "",
		"Pool-wide buffer-pool hits (all traffic, query-attributed or not).",
		func() float64 { return float64(e.sx.Pool().Stats().Hits) })
	r.CounterFunc("silc_diskio_pool_misses_total", "",
		"Pool-wide buffer-pool misses.",
		func() float64 { return float64(e.sx.Pool().Stats().Misses) })
	r.CounterFunc("silc_diskio_pool_evictions_total", "",
		"Pool-wide buffer-pool evictions.",
		func() float64 { return float64(e.sx.Pool().Stats().Evictions) })
	r.GaugeFunc("silc_diskio_pool_resident_pages", "",
		"Pages currently resident in the buffer pool.",
		func() float64 {
			if p := e.sx.Pool(); p != nil {
				return float64(p.Len())
			}
			return 0
		})
	r.GaugeFunc("silc_diskio_pool_capacity_pages", "",
		"Buffer-pool page capacity.",
		func() float64 {
			if p := e.sx.Pool(); p != nil {
				return float64(p.Capacity())
			}
			return 0
		})
	labels := e.sx.LabelStats
	r.CounterFunc("silc_partition_label_hits_total", "",
		"Gateway-interval rows answered from the label table (no cell lookups, no RPC).",
		func() float64 { return float64(labels().Hits) })
	r.CounterFunc("silc_partition_label_misses_total", "",
		"Gateway-interval rows computed by the cell backend because the label table did not hold them.",
		func() float64 { return float64(labels().Misses) })
	r.GaugeFunc("silc_partition_label_rows", "",
		"Gateway-interval rows the label table holds, all cells together.",
		func() float64 { return float64(labels().Rows) })
	races := e.sx.RaceHintStats
	r.CounterFunc("silc_partition_race_hinted_total", "",
		"Destinations whose route race a search announced ahead of its refinement step and a remote cell answered in a batch.",
		func() float64 { hinted, _ := races(); return float64(hinted) })
	r.CounterFunc("silc_partition_race_used_total", "",
		"Batched race results a refinement step went on to use; hinted minus used is wasted speculation.",
		func() float64 { _, used := races(); return float64(used) })
	if e.source == "" {
		return m
	}
	pool, label := e.sx.Pool(), `source="`+e.source+`"`
	r.CounterFunc("silc_store_page_reads_total", label,
		"Real page reads: missed frames the pool filled, every cell store together.",
		func() float64 { return float64(pool.Stats().Reads) })
	r.CounterFunc("silc_store_read_seconds_total", label,
		"Wall-clock seconds filling missed page frames and checking their CRCs: positioned reads (readat) or copies out of the mapping (mmapcopy).",
		func() float64 { return pool.ReadTime().Seconds() })
	r.CounterFunc("silc_store_blocks_decoded_total", label,
		"Quadtree blocks passed through the paged decoder (lookups and tree decodes).",
		func() float64 { return float64(pool.Stats().BlocksDecoded) })
	return m
}

// fold adds a finished query's span and I/O counters to the engine
// aggregates and observes its end-to-end latency. Called exactly once
// per checkout, from releaseQC.
func (m *engineObs) fold(qc *core.QueryContext) {
	sp := &qc.Span
	if sp.Begin.IsZero() {
		return // context never went through beginSpan (internal path)
	}
	d := time.Since(sp.Begin)
	op := sp.Op
	if op >= numOps {
		op = opKNN
	}
	m.queries[op].Inc()
	m.latency[op].Observe(d)
	m.refinements.Add(sp.Refinements)
	m.lookups.Add(sp.Lookups)
	m.heapPushes.Add(sp.HeapPushes)
	m.crossCell.Add(sp.CrossCell)
	m.gatewayRoutes.Add(sp.GatewayRoutes)
	m.pageHits.Add(qc.IO.Hits)
	m.pageMisses.Add(qc.IO.Misses)
	m.pageReads.Add(qc.IO.Reads)
	m.evictions.Add(qc.IO.Evictions)
	m.blocksDecoded.Add(qc.IO.BlocksDecoded)
	if sp.Timed {
		m.filterSecs.Add(sp.FilterNanos)
		if rest := d.Nanoseconds() - sp.FilterNanos; rest > 0 {
			m.refineSecs.Add(rest)
		}
	}
}

// SetTracing toggles phase wall-clock timing on the query path: with
// tracing on, each query's span carries FilterTime/RefineTime (surfaced
// in QueryStats and the silc_knn_*_seconds_total counters) at the cost
// of one time.Now pair per hierarchy expansion. Counters and latency
// histograms are always on — only the extra clocks are gated. Safe to
// toggle at runtime; in-flight queries keep the setting they started
// with.
func (e *Engine) SetTracing(on bool) { e.obs.timed.Store(on) }

// TracingEnabled reports whether phase wall-clock timing is on.
func (e *Engine) TracingEnabled() bool { return e.obs.timed.Load() }

// WriteMetrics writes the engine's metrics in Prometheus text
// exposition format: per-entry-point query counts and latency
// histograms (silc_engine_*), search-work counters (silc_knn_*),
// buffer-pool traffic (silc_diskio_*), per-store read/decode counters
// labelled by page source (silc_store_*), and cross-cell routing fan-out
// and label-table traffic (silc_partition_*). Safe for concurrent use with
// queries; scraping never blocks the query path.
func (e *Engine) WriteMetrics(w io.Writer) error {
	return e.obs.reg.WritePrometheus(w)
}

// beginSpan arms qc's trace span for one query.
func (e *Engine) beginSpan(qc *core.QueryContext, op uint8) {
	qc.Span.Begin = time.Now()
	qc.Span.Op = op
	qc.Span.Timed = e.obs.timed.Load()
}

func itoa(i int) string { return strconv.Itoa(i) }
