package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"silc"
)

// A reply is the body of a JSON endpoint's 2xx response: a typed value that
// appends itself to a jsonWriter.
type reply interface {
	appendJSON(w *jsonWriter)
}

// jsonWriter appends one JSON value exactly as encoding/json's Encoder
// writes it when told to indent by two spaces, without reflection and
// without the Encoder's second, indenting pass. The bytes are a contract: clients find
// fields by their literal text (a live reader finds its version by
// `"snapshot_version": `), so object members come in the order
// encoding/json gave them — the sorted keys of the maps the handlers used to
// build, the declaration order of neighborJSON and queryStatsJSON — and
// numbers and strings are formatted by its rules.
//
// A member is w.key(name).int(v); an array element w.next().int(v).
type jsonWriter struct {
	buf   []byte
	depth int   // containers open
	empty bool  // the innermost open container has no member yet
	err   error // the first value encoding/json would refuse
}

func (w *jsonWriter) reset() {
	w.buf, w.depth, w.empty, w.err = w.buf[:0], 0, false, nil
}

// open starts an object ('{') or an array ('[').
func (w *jsonWriter) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// close ends the innermost container; an empty one stays "{}" or "[]".
func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.empty = false
}

// next starts an array element.
func (w *jsonWriter) next() *jsonWriter {
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline()
	return w
}

// key starts an object member.
func (w *jsonWriter) key(k string) *jsonWriter {
	w.next().string(k)
	w.buf = append(w.buf, ':', ' ')
	return w
}

// indents is a newline and the indentation of sixteen levels, eleven more
// than the deepest reply (a neighbor in a batch result) needs.
const indents = "\n                                "

func (w *jsonWriter) newline() {
	w.buf = append(w.buf, indents[:1+2*w.depth]...)
}

func (w *jsonWriter) int(v int64)   { w.buf = strconv.AppendInt(w.buf, v, 10) }
func (w *jsonWriter) uint(v uint64) { w.buf = strconv.AppendUint(w.buf, v, 10) }
func (w *jsonWriter) bool(v bool)   { w.buf = strconv.AppendBool(w.buf, v) }
func (w *jsonWriter) null()         { w.buf = append(w.buf, "null"...) }

// float writes f as encoding/json does: the shortest 'f' form, 'e' below
// 1e-6 and from 1e21 on, with a one-digit exponent unpadded (e-7, not
// e-07). A non-finite f is an error, as it is to encoding/json.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			_, w.err = json.Marshal(f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if n := len(w.buf); format == 'e' && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
		w.buf[n-2] = w.buf[n-1]
		w.buf = w.buf[:n-1]
	}
}

// string writes s quoted. A string with a byte encoding/json would escape —
// a quote, a backslash, a control byte, <, > or &, or anything beyond ASCII
// (U+2028 and invalid UTF-8 among it) — is quoted by encoding/json itself.
func (w *jsonWriter) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.buf = append(w.buf, q...)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

// maxPooledReply bounds the buffers kept for reuse: a batch of -max-batch
// queries at -max-k can reply with gigabytes, which must not stay pinned.
const maxPooledReply = 1 << 20

var writers = sync.Pool{New: func() any { return new(jsonWriter) }}

// writeReply sends body, newline-terminated, in one Write that carries its
// Content-Length. On an error nothing is written.
func writeReply(rw http.ResponseWriter, body reply) error {
	w := writers.Get().(*jsonWriter)
	defer func() {
		if cap(w.buf) <= maxPooledReply {
			writers.Put(w)
		}
	}()
	w.reset()
	body.appendJSON(w)
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, '\n')
	h := rw.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(w.buf)))
	rw.Write(w.buf)
	return nil
}

func (n neighborJSON) appendJSON(w *jsonWriter) {
	w.open('{')
	w.key("id").int(int64(n.ID))
	w.key("vertex").int(n.Vertex)
	w.key("dist").float(n.Dist)
	w.key("exact").bool(n.Exact)
	w.close('}')
}

func appendNeighbors(w *jsonWriter, ns []silc.Neighbor) {
	w.open('[')
	for _, n := range ns {
		toNeighbor(n).appendJSON(w.next())
	}
	w.close(']')
}

func (st queryStatsJSON) appendJSON(w *jsonWriter) {
	omitempty := func(k string, v int64) {
		if v != 0 {
			w.key(k).int(v)
		}
	}
	w.open('{')
	w.key("method").string(st.Method)
	w.key("refinements").int(int64(st.Refinements))
	w.key("lookups").int(int64(st.Lookups))
	omitempty("settled", int64(st.Settled))
	omitempty("heap_pushes", st.HeapPushes)
	w.key("page_hits").int(st.PageHits)
	w.key("page_misses").int(st.PageMisses)
	omitempty("page_reads", st.PageReads)
	omitempty("evictions", st.Evictions)
	omitempty("blocks_decoded", st.BlocksDecoded)
	omitempty("gateway_routes", st.GatewayRoutes)
	w.key("cpu_time_us").int(st.CPUTimeUS)
	omitempty("filter_time_us", st.FilterTimeUS)
	omitempty("refine_time_us", st.RefineTimeUS)
	if st.SnapshotVer != 0 {
		w.key("snapshot_version").uint(st.SnapshotVer)
	}
	w.close('}')
}

// appendResult writes one kNN result's members: after "k" in GET /knn's
// reply, alone in each of a batch's results.
func appendResult(w *jsonWriter, q silc.VertexID, res *silc.Result) {
	appendNeighbors(w.key("neighbors"), res.Neighbors)
	w.key("query").int(int64(q))
	w.key("sorted").bool(res.Sorted)
	toStats(res.Stats).appendJSON(w.key("stats"))
}

// knnReply is GET /knn's body.
type knnReply struct {
	k   int
	q   silc.VertexID
	res silc.Result
}

func (r *knnReply) appendJSON(w *jsonWriter) {
	w.open('{')
	w.key("k").int(int64(r.k))
	appendResult(w, r.q, &r.res)
	w.close('}')
}

// batchReply is POST /knn's body: results[i] answers queries[i].
type batchReply struct {
	k       int
	queries []silc.VertexID
	b       silc.BatchResult
}

func (r *batchReply) appendJSON(w *jsonWriter) {
	st := &r.b.Stats
	w.open('{')
	w.key("batch").open('{')
	w.key("failed").int(int64(st.Failed))
	w.key("page_hits").int(st.PageHits)
	w.key("page_misses").int(st.PageMisses)
	w.key("qps").float(st.QPS)
	w.key("queries").int(int64(st.Queries))
	w.key("skipped").int(int64(st.Skipped))
	w.key("total_cpu_us").int(st.TotalCPU.Microseconds())
	w.key("wall_us").int(st.Wall.Microseconds())
	w.key("workers").int(int64(st.Workers))
	w.close('}')
	w.key("k").int(int64(r.k))
	w.key("results").open('[')
	for i := range r.b.Results {
		w.next().open('{')
		appendResult(w, r.queries[i], &r.b.Results[i])
		w.close('}')
	}
	w.close(']')
	w.close('}')
}

// distanceReply is GET /distance's body; an unreachable pair (dist +Inf)
// has no "distance".
type distanceReply struct {
	src, dst silc.VertexID
	dist     float64
	stats    silc.QueryStats
}

func (r *distanceReply) appendJSON(w *jsonWriter) {
	reachable := !math.IsInf(r.dist, 1)
	w.open('{')
	if reachable {
		w.key("distance").float(r.dist)
	}
	w.key("dst").int(int64(r.dst))
	w.key("reachable").bool(reachable)
	w.key("src").int(int64(r.src))
	toStats(r.stats).appendJSON(w.key("stats"))
	w.close('}')
}

// pathReply is GET /path's body; an unreachable pair (nil path) has no
// "distance" and no "path".
type pathReply struct {
	src, dst silc.VertexID
	path     []silc.VertexID
	dist     float64
	stats    silc.QueryStats
}

func (r *pathReply) appendJSON(w *jsonWriter) {
	w.open('{')
	if r.path != nil {
		w.key("distance").float(r.dist)
	}
	w.key("dst").int(int64(r.dst))
	if r.path != nil {
		w.key("path").open('[')
		for _, v := range r.path {
			w.next().int(int64(v))
		}
		w.close(']')
	}
	w.key("reachable").bool(r.path != nil)
	w.key("src").int(int64(r.src))
	toStats(r.stats).appendJSON(w.key("stats"))
	w.close('}')
}

// rangeReply is GET /range's body.
type rangeReply struct {
	q      silc.VertexID
	radius float64
	res    silc.Result
}

func (r *rangeReply) appendJSON(w *jsonWriter) {
	w.open('{')
	w.key("count").int(int64(len(r.res.Neighbors)))
	appendNeighbors(w.key("neighbors"), r.res.Neighbors)
	w.key("query").int(int64(r.q))
	w.key("radius").float(r.radius)
	toStats(r.res.Stats).appendJSON(w.key("stats"))
	w.close('}')
}

// statsReply is GET /stats's body. Its index is the index's build
// statistics, cells and closure (null when unset).
type statsReply struct {
	index     *silc.ShardedStats
	objects   int
	live      *liveStats // nil (null) without a live world
	pool      silc.IOStats
	uptimeS   int64
	requests  int64
	queries   int64
	inflight  int64
	tracing   bool
	endpoints []endpointStats // ascending by name
}

type liveStats struct {
	objects int
	version uint64
}

type endpointStats struct {
	name                string
	requests            int64
	p50US, p90US, p99US int64
}

func (r *statsReply) appendJSON(w *jsonWriter) {
	st := r.index
	w.open('{')
	w.key("index")
	if st == nil {
		w.null()
	} else {
		w.open('{')
		w.key("boundary_vertices").int(int64(st.BoundaryVertices))
		w.key("build_time_ms").int(st.BuildTime.Milliseconds())
		w.key("cell_bytes").int(st.CellBytes)
		w.key("closure_bytes").int(st.ClosureBytes)
		w.key("cut_edges").int(int64(st.CutEdges))
		w.key("edges").int(int64(st.Edges))
		w.key("partitions").int(int64(st.Partitions))
		w.key("self_contained").int(int64(st.SelfContained))
		w.key("total_blocks").int(st.CellBlocks)
		w.key("total_bytes").int(st.TotalBytes)
		w.key("vertices").int(int64(st.Vertices))
		w.close('}')
	}
	w.key("live")
	if r.live == nil {
		w.null()
	} else {
		w.open('{')
		w.key("objects").int(int64(r.live.objects))
		w.key("version").uint(r.live.version)
		w.close('}')
	}
	w.key("objects").int(int64(r.objects))
	w.key("pool").open('{')
	w.key("measured_io_time_us").int(r.pool.MeasuredIOTime.Microseconds())
	w.key("page_hits").int(r.pool.PageHits)
	w.key("page_misses").int(r.pool.PageMisses)
	w.key("page_reads").int(r.pool.PageReads)
	w.close('}')
	w.key("server").open('{')
	w.key("endpoints").open('{')
	for _, e := range r.endpoints {
		w.key(e.name).open('{')
		w.key("p50_us").int(e.p50US)
		w.key("p90_us").int(e.p90US)
		w.key("p99_us").int(e.p99US)
		w.key("requests").int(e.requests)
		w.close('}')
	}
	w.close('}')
	w.key("inflight").int(r.inflight)
	w.key("queries").int(r.queries)
	w.key("requests").int(r.requests)
	w.key("tracing").bool(r.tracing)
	w.key("uptime_s").int(r.uptimeS)
	w.close('}')
	w.close('}')
}

// objectsReply is GET /objects' body: one snapshot's objects, ascending by
// id.
type objectsReply struct {
	objects []silc.LiveObject
	version uint64
}

func (r *objectsReply) appendJSON(w *jsonWriter) {
	w.open('{')
	w.key("count").int(int64(len(r.objects)))
	w.key("objects").open('[')
	for _, o := range r.objects {
		w.next().open('{')
		w.key("id").int(int64(o.ID))
		w.key("vertex").int(int64(o.Vertex))
		w.close('}')
	}
	w.close(']')
	w.key("version").uint(r.version)
	w.close('}')
}

// putReply acknowledges POST /objects: where the object now is, and the
// first version that shows it there.
type putReply struct {
	id      int32
	vertex  silc.VertexID
	version uint64
}

func (r *putReply) appendJSON(w *jsonWriter) {
	w.open('{')
	w.key("id").int(int64(r.id))
	w.key("version").uint(r.version)
	w.key("vertex").int(int64(r.vertex))
	w.close('}')
}

// deleteReply acknowledges DELETE /objects with the first version without
// the object.
type deleteReply struct {
	id      int32
	version uint64
}

func (r *deleteReply) appendJSON(w *jsonWriter) {
	w.open('{')
	w.key("id").int(int64(r.id))
	w.key("version").uint(r.version)
	w.close('}')
}
