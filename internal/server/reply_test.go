package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"silc"
)

// The oracle: each reply as the map or struct its handler built before
// replies were typed, written by encoding/json with SetIndent("", "  ") as
// the server wrote every JSON reply then.

func oracleResult(q silc.VertexID, res silc.Result) map[string]any {
	return map[string]any{"query": q, "sorted": res.Sorted, "neighbors": toNeighbors(res.Neighbors), "stats": toStats(res.Stats)}
}

func oracle(r reply) any {
	switch r := r.(type) {
	case *knnReply:
		body := oracleResult(r.q, r.res)
		body["k"] = r.k
		return body
	case *batchReply:
		results := make([]map[string]any, len(r.b.Results))
		for i, res := range r.b.Results {
			results[i] = oracleResult(r.queries[i], res)
		}
		return map[string]any{
			"k":       r.k,
			"results": results,
			"batch": map[string]any{
				"queries":      r.b.Stats.Queries,
				"failed":       r.b.Stats.Failed,
				"skipped":      r.b.Stats.Skipped,
				"workers":      r.b.Stats.Workers,
				"wall_us":      r.b.Stats.Wall.Microseconds(),
				"qps":          r.b.Stats.QPS,
				"total_cpu_us": r.b.Stats.TotalCPU.Microseconds(),
				"page_hits":    r.b.Stats.PageHits,
				"page_misses":  r.b.Stats.PageMisses,
			},
		}
	case *distanceReply:
		body := map[string]any{"src": r.src, "dst": r.dst, "reachable": !math.IsInf(r.dist, 1), "stats": toStats(r.stats)}
		if !math.IsInf(r.dist, 1) {
			body["distance"] = r.dist
		}
		return body
	case *pathReply:
		body := map[string]any{"src": r.src, "dst": r.dst, "reachable": r.path != nil, "stats": toStats(r.stats)}
		if r.path != nil {
			body["distance"] = r.dist
			body["path"] = r.path
		}
		return body
	case *rangeReply:
		return map[string]any{
			"query":     r.q,
			"radius":    r.radius,
			"count":     len(r.res.Neighbors),
			"neighbors": toNeighbors(r.res.Neighbors),
			"stats":     toStats(r.res.Stats),
		}
	case *statsReply:
		var index map[string]any
		if st := r.index; st != nil {
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
		}
		endpoints := make(map[string]any, len(r.endpoints))
		for _, e := range r.endpoints {
			endpoints[e.name] = map[string]any{"requests": e.requests, "p50_us": e.p50US, "p90_us": e.p90US, "p99_us": e.p99US}
		}
		var live map[string]any
		if r.live != nil {
			live = map[string]any{"objects": r.live.objects, "version": r.live.version}
		}
		return map[string]any{
			"index":   index,
			"objects": r.objects,
			"live":    live,
			"pool": map[string]any{
				"page_hits":           r.pool.PageHits,
				"page_misses":         r.pool.PageMisses,
				"page_reads":          r.pool.PageReads,
				"measured_io_time_us": r.pool.MeasuredIOTime.Microseconds(),
			},
			"server": map[string]any{
				"uptime_s":  r.uptimeS,
				"requests":  r.requests,
				"queries":   r.queries,
				"inflight":  r.inflight,
				"tracing":   r.tracing,
				"endpoints": endpoints,
			},
		}
	case *objectsReply:
		list := make([]map[string]any, len(r.objects))
		for i, o := range r.objects {
			list[i] = map[string]any{"id": o.ID, "vertex": o.Vertex}
		}
		return map[string]any{"version": r.version, "count": len(list), "objects": list}
	case *putReply:
		return map[string]any{"id": r.id, "vertex": r.vertex, "version": r.version}
	case *deleteReply:
		return map[string]any{"id": r.id, "version": r.version}
	}
	panic("oracle: unknown reply type")
}

// oracleWrite is the reply path the typed writer replaced.
func oracleWrite(w http.ResponseWriter, r reply) error {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(oracle(r))
}

// fuzzReplies builds one reply of every type from the fuzzer's values: f1
// and f2 are every float, i every signed integer, u every unsigned one, n
// sizes the lists (0 with bit 0 set: a nil neighbor list), and each other
// bit of bits picks an optional part — an omitempty stats field, a nil
// path, the /stats index, a live world.
func fuzzReplies(f1, f2 float64, i int64, u uint64, n uint8, bits uint32, method string) []reply {
	bit := func(k int) bool { return bits>>k&1 == 1 }
	unless := func(k int, v int64) int64 {
		if bit(k) {
			return v
		}
		return 0
	}
	var ns []silc.Neighbor
	if n != 0 || !bit(0) {
		ns = make([]silc.Neighbor, n%6)
	}
	for j := range ns {
		ns[j] = silc.Neighbor{ID: int32(i) + int32(j), Vertex: silc.VertexID(u) - silc.VertexID(j), Dist: []float64{f1, f2}[j%2], Exact: bit(1 + j%2)}
	}
	st := silc.QueryStats{
		Method:        method,
		Refinements:   int(i),
		Lookups:       int(int32(i)),
		Settled:       int(unless(3, i)),
		HeapPushes:    unless(4, i),
		PageHits:      i,
		PageMisses:    int64(u),
		PageReads:     unless(5, i),
		Evictions:     unless(6, -i),
		BlocksDecoded: unless(7, i),
		GatewayRoutes: unless(8, i),
		CPUTime:       time.Duration(i),
		FilterTime:    time.Duration(unless(9, i)),
		RefineTime:    time.Duration(unless(10, i)),
	}
	if bit(11) {
		st.SnapshotVersion = u
	}
	res := silc.Result{Neighbors: ns, Sorted: bit(12), Stats: st}
	q := silc.VertexID(i)

	batch := &batchReply{k: int(i), b: silc.BatchResult{Stats: silc.BatchStats{
		Queries: int(i), Failed: int(int32(u)), Skipped: int(n), Workers: int(bits),
		Wall: time.Duration(i), QPS: f2, TotalCPU: time.Duration(u), PageHits: i, PageMisses: int64(u),
	}}}
	for j := range int(n % 4) {
		batch.queries = append(batch.queries, q+silc.VertexID(j))
		batch.b.Results = append(batch.b.Results, silc.Result{Neighbors: ns[:len(ns)*j/3], Sorted: bit(j), Stats: st})
	}

	path := &pathReply{src: q, dst: silc.VertexID(u), dist: f2, stats: st}
	if !bit(14) {
		path.path = make([]silc.VertexID, n%5)
		for j := range path.path {
			path.path[j] = q + silc.VertexID(j)
		}
	}

	stats := &statsReply{
		objects:  int(i),
		pool:     silc.IOStats{PageHits: i, PageMisses: int64(u), PageReads: -i, MeasuredIOTime: time.Duration(u)},
		uptimeS:  i,
		requests: int64(u),
		queries:  i,
		inflight: int64(n),
		tracing:  bit(15),
	}
	if bit(16) {
		stats.index = &silc.ShardedStats{
			Partitions: int(n), Vertices: int(i), Edges: int(u), BoundaryVertices: int(int32(i)), CutEdges: int(bits),
			SelfContained: int(n) / 2, CellBlocks: i, CellBytes: int64(u), ClosureBytes: -i, TotalBytes: i, BuildTime: time.Duration(u),
		}
	}
	if bit(18) {
		stats.live = &liveStats{objects: int(i), version: u}
	}
	for _, name := range []string{"/distance", "/knn", "/range"}[:n%4] {
		stats.endpoints = append(stats.endpoints, endpointStats{name: name, requests: i, p50US: int64(u), p90US: -i, p99US: int64(n)})
	}
	if bit(19) && method > "/range" { // keeps the names unique and ascending
		stats.endpoints = append(stats.endpoints, endpointStats{name: method, requests: int64(u)})
	}

	objects := &objectsReply{version: u, objects: make([]silc.LiveObject, n%4)}
	for j := range objects.objects {
		objects.objects[j] = silc.LiveObject{ID: int32(i) + int32(j), Vertex: silc.VertexID(u)}
	}
	return []reply{
		&knnReply{k: int(i), q: q, res: res},
		batch,
		&distanceReply{src: q, dst: silc.VertexID(u), dist: f1, stats: st},
		path,
		&rangeReply{q: q, radius: f2, res: res},
		stats,
		objects,
		&putReply{id: int32(i), vertex: silc.VertexID(u), version: u},
		&deleteReply{id: int32(i), version: u},
	}
}

// FuzzReplyJSON is the writer's differential test: for every reply type,
// writeReply sends exactly the bytes the oracle's encoding/json writes, with
// a matching Content-Length, and where encoding/json refuses a value (a
// non-finite float) writeReply fails the same way and writes nothing.
func FuzzReplyJSON(f *testing.F) {
	type seed struct {
		f1, f2 float64
		i      int64
		u      uint64
		n      uint8
		bits   uint32
		method string
	}
	for _, s := range []seed{
		{0, 5e-324, 0, 0, 0, 0, "KNN"},                                     // zeros, every omitempty field zero
		{0, 0, 0, 0, 0, 1, ""},                                             // a nil neighbor list
		{9.99e-7, 1e-6, 7, 3, 5, math.MaxUint32, "a<b"},                    // every omitempty field non-zero
		{1e20, 1e21, math.MaxInt32, math.MaxUint64, 3, 0x5555_5555, "a>b"}, // 'f' and 'e' around 1e21
		{-1e-7, -2.5, math.MinInt32, 1, 4, 0xAAAA_AAAA, "a&b"},
		{-1e21, -0.1, math.MaxInt64, math.MaxUint64, 2, 0x1_0000, `say "hi"`},
		{0.1234567890123, 42, math.MinInt64, 1 << 63, 1, 0x2_0000, "line\u2028para\u2029"},
		{1, -5e-324, -1, 12345, 7, 0x4_0000 | 1<<19, "\xff\xfe invalid"},
		{math.Inf(1), 1, 1, 1, 3, 0, "tab\tnewline\n"},
		{math.NaN(), 1, 1, 1, 3, 0, "KNN"},
		{1, math.Inf(-1), 1, 1, 3, 0, `back\slash`},
	} {
		f.Add(s.f1, s.f2, s.i, s.u, s.n, s.bits, s.method)
	}
	f.Fuzz(func(t *testing.T, f1, f2 float64, i int64, u uint64, n uint8, bits uint32, method string) {
		for _, r := range fuzzReplies(f1, f2, i, u, n, bits, method) {
			want, got := httptest.NewRecorder(), httptest.NewRecorder()
			wantErr, gotErr := oracleWrite(want, r), writeReply(got, r)
			switch {
			case (wantErr == nil) != (gotErr == nil):
				t.Fatalf("%T: writer error %v, encoding/json error %v", r, gotErr, wantErr)
			case gotErr != nil:
				if gotErr.Error() != wantErr.Error() || got.Body.Len() > 0 {
					t.Fatalf("%T: writer error %v after %d bytes, encoding/json error %v", r, gotErr, got.Body.Len(), wantErr)
				}
			case !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()):
				t.Fatalf("%T: writer wrote\n%s\nencoding/json wrote\n%s", r, got.Body, want.Body)
			case got.Header().Get("Content-Length") != strconv.Itoa(got.Body.Len()),
				got.Header().Get("Content-Type") != "application/json":
				t.Fatalf("%T: headers %v for %d bytes", r, got.Header(), got.Body.Len())
			}
		}
	})
}

// discard is a ResponseWriter that keeps only its header.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(int)             {}

// BenchmarkReplyEncode times the two hot replies — GET /knn at k=10 and a
// POST /knn batch of 64 at k=10, answered on an in-RAM 24×24 road map — on
// the writer and on the encoding/json path it replaced (which includes
// building the maps, as the handlers did).
func BenchmarkReplyEncode(b *testing.B) {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 24, Cols: 24, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var vs, queries []silc.VertexID
	for v := 0; v < net.NumVertices(); v++ {
		if v%5 == 0 {
			vs = append(vs, silc.VertexID(v))
		}
		if v%8 == 0 && len(queries) < 64 {
			queries = append(queries, silc.VertexID(v))
		}
	}
	objs, err := silc.NewObjectSet(net, vs)
	if err != nil {
		b.Fatal(err)
	}
	ctx := b.Context()
	single := &knnReply{k: 10, q: queries[0]}
	if single.res, err = ix.Query(ctx, objs, single.q, 10); err != nil {
		b.Fatal(err)
	}
	batch := &batchReply{k: 10, queries: queries}
	if batch.b, err = ix.QueryBatch(ctx, objs, queries, 10); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body reply
	}{{"knn", single}, {"batch", batch}} {
		for _, e := range []struct {
			name  string
			write func(http.ResponseWriter, reply) error
		}{{"writer", writeReply}, {"encoding-json", oracleWrite}} {
			b.Run(c.name+"/"+e.name, func(b *testing.B) {
				rec := httptest.NewRecorder()
				if err := e.write(rec, c.body); err != nil {
					b.Fatal(err)
				}
				w := &discard{h: http.Header{}}
				b.ReportAllocs()
				for b.Loop() {
					e.write(w, c.body)
				}
				b.ReportMetric(float64(rec.Body.Len()), "body-bytes")
			})
		}
	}
}
