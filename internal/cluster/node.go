package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/obs"
	"silc/internal/partition"
)

// Node serves one cluster node's share of a partitioned index: the RPC
// surface for the cells the manifest assigns it, plus health and metrics
// endpoints. It holds a full *partition.Sharded opened from the shared
// paged file — the demand-paged stores mean only the owned cells' pages
// ever materialize — and rejects RPCs for cells it does not own, so a
// routing bug surfaces as a loud 4xx instead of silently serving from an
// unwarmed replica.
//
// A Node is safe for unlimited concurrent requests, like the index under
// it. StartDrain flips /readyz to 503 while every RPC keeps being served;
// load balancers (and the cluster client's health probes) stop sending new
// work, and http.Server.Shutdown finishes what is in flight.
type Node struct {
	name  string
	s     *partition.Sharded
	owned []bool
	// qcs recycles query contexts — and the refiner slabs they carry —
	// between RPCs.
	qcs sync.Pool

	reg         *obs.Registry
	rpcs        map[string]*nodeEndpointMetrics
	rejects     *obs.Counter
	refinements *obs.Counter
	cellRPCs    []*obs.Counter
	draining    atomic.Bool
}

type nodeEndpointMetrics struct {
	calls   *obs.Counter
	errors  *obs.Counter
	latency *obs.Histogram
}

// NewNode builds the node named name from the manifest, serving cells out
// of s. The manifest must cover s's partition count and list the node.
func NewNode(name string, m *Manifest, s *partition.Sharded) (*Node, error) {
	p := s.NumPartitions()
	if err := m.Validate(p); err != nil {
		return nil, err
	}
	spec := m.Node(name)
	if spec == nil {
		return nil, fmt.Errorf("cluster: manifest has no node %q", name)
	}
	n := &Node{
		name:  name,
		s:     s,
		owned: make([]bool, p),
		reg:   obs.NewRegistry(),
	}
	for _, c := range spec.Cells {
		n.owned[c] = true
	}
	n.rpcs = make(map[string]*nodeEndpointMetrics, len(endpoints))
	for _, ep := range endpoints {
		label := `endpoint="` + ep + `"`
		n.rpcs[ep] = &nodeEndpointMetrics{
			calls: n.reg.Counter("silcnode_rpcs_total", label,
				"RPC calls served per endpoint."),
			errors: n.reg.Counter("silcnode_rpc_errors_total", label,
				"RPC calls that failed per endpoint (bad request, unowned cell, or storage failure)."),
			latency: n.reg.Histogram("silcnode_rpc_seconds", label,
				"RPC service latency per endpoint."),
		}
	}
	n.rejects = n.reg.Counter("silcnode_rejected_total", "",
		"RPCs rejected because this node does not own the requested cell.")
	n.refinements = n.reg.Counter("silcnode_refinements_total", "",
		"Interval refinement steps the node's RPCs performed (route races refine; lookups do not).")
	n.cellRPCs = make([]*obs.Counter, p)
	for _, c := range spec.Cells {
		n.cellRPCs[c] = n.reg.Counter("silcnode_cell_rpcs_total",
			`cell="`+strconv.Itoa(c)+`"`,
			"RPC calls served per owned cell.")
	}
	n.reg.GaugeFunc("silcnode_draining", `node="`+name+`"`,
		"1 while the node is draining (readyz failing), else 0.",
		func() float64 {
			if n.draining.Load() {
				return 1
			}
			return 0
		})
	return n, nil
}

// Name returns the node's manifest name.
func (n *Node) Name() string { return n.name }

// Registry exposes the node's silcnode_* metrics for serving alongside the
// index's own families.
func (n *Node) Registry() *obs.Registry { return n.reg }

// StartDrain flips /readyz to 503. RPCs keep being served; callers follow
// with http.Server.Shutdown to finish in-flight connections.
func (n *Node) StartDrain() { n.draining.Store(true) }

// Handler returns the node's HTTP surface: the RPC endpoints plus
// /healthz, /readyz and /metrics.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathIntervals, rpc(n, PathIntervals, n.intervals))
	mux.HandleFunc(PathInterval, rpc(n, PathInterval, n.interval))
	mux.HandleFunc(PathRace, rpc(n, PathRace, n.race))
	mux.HandleFunc(PathPath, rpc(n, PathPath, n.path))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if n.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.reg.WritePrometheus(w)
	})
	return mux
}

// rpcError carries an HTTP status through a handler's error return.
type rpcError struct {
	status int
	msg    string
}

func (e rpcError) Error() string { return e.msg }

// maxRequestBytes bounds a request body the node reads.
const maxRequestBytes = 16 << 20

// rpcCall is one RPC's decoded request and its reply, recycled per endpoint
// so that a warm node decodes into and answers from columns it already has.
type rpcCall[Req, Resp any] struct {
	req  Req
	resp Resp
}

// rpc wraps one endpoint handler with frame decoding and encoding, metrics,
// and error rendering. Handlers receive a decoded request, the reply to fill
// — every field of it, since the reply is recycled — and a query context
// bound to the HTTP request's context: the router's deadline and disconnects
// cancel the node-side computation within one refinement step.
func rpc[Req, Resp any, PReq interface {
	*Req
	Message
}, PResp interface {
	*Resp
	Message
}](n *Node, ep string, h func(qc *core.QueryContext, req *Req, resp *Resp) error) http.HandlerFunc {
	em := n.rpcs[ep]
	calls := sync.Pool{New: func() any { return new(rpcCall[Req, Resp]) }}
	return func(w http.ResponseWriter, r *http.Request) {
		em.calls.Inc()
		start := time.Now()
		defer func() { em.latency.Observe(time.Since(start)) }()
		if r.Method != http.MethodPost {
			em.errors.Inc()
			writeRPCError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		buf := getFrameBuf()
		defer putFrameBuf(buf)
		var err error
		buf.b, err = readBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), buf.b, r.ContentLength)
		if err != nil {
			em.errors.Inc()
			writeRPCError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
		call := calls.Get().(*rpcCall[Req, Resp])
		defer calls.Put(call)
		if err := decodeFrame(buf.b, PReq(&call.req)); err != nil {
			em.errors.Inc()
			writeRPCError(w, http.StatusBadRequest, err.Error())
			return
		}
		qc, ok := n.qcs.Get().(*core.QueryContext)
		if ok {
			qc.ResetForReuse(r.Context())
		} else {
			qc = core.NewQueryContextFor(r.Context())
		}
		// Handlers are done with qc once they return: replies carry copies.
		defer n.qcs.Put(qc)
		err = h(qc, &call.req, &call.resp)
		n.refinements.Add(qc.Span.Refinements)
		if err == nil && qc.Failed() {
			err = qc.Err() // storage failure during the computation
		}
		if err != nil {
			em.errors.Inc()
			if re, ok := err.(rpcError); ok {
				writeRPCError(w, re.status, re.msg)
			} else {
				writeRPCError(w, http.StatusInternalServerError, err.Error())
			}
			return
		}
		buf.b = PResp(&call.resp).appendFrame(buf.b[:0])
		w.Header().Set("Content-Type", frameContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(buf.b)))
		w.Write(buf.b)
	}
}

func writeRPCError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResp{Error: msg})
}

// checkCell validates ownership plus every local vertex id, returning the
// cell's index. Misrouted cells get 421 (misdirected request) so the client
// can distinguish "wrong node" from a transient failure it should retry.
func (n *Node) checkCell(cell int32, verts ...uint32) (partition.CellIndex, error) {
	if cell < 0 || int(cell) >= len(n.owned) {
		return nil, rpcError{http.StatusBadRequest, fmt.Sprintf("cell %d out of range", cell)}
	}
	if !n.owned[cell] {
		n.rejects.Inc()
		return nil, rpcError{http.StatusMisdirectedRequest,
			fmt.Sprintf("node %s does not own cell %d", n.name, cell)}
	}
	if err := n.checkVerts(cell, verts); err != nil {
		return nil, err
	}
	if c := n.cellRPCs[cell]; c != nil {
		c.Inc()
	}
	return n.s.CellIndexAt(int(cell)), nil
}

// checkVerts validates a request's cell-local vertex ids against the cell's
// vertex count.
func (n *Node) checkVerts(cell int32, verts []uint32) error {
	nv := n.s.CellVertexCount(int(cell))
	for _, v := range verts {
		if int(v) >= nv {
			return rpcError{http.StatusBadRequest,
				fmt.Sprintf("vertex %d out of cell %d's %d vertices", v, cell, nv)}
		}
	}
	return nil
}

func (n *Node) intervals(qc *core.QueryContext, req *IntervalsReq, resp *IntervalsResp) error {
	cx, err := n.checkCell(req.Cell, req.V)
	if err != nil {
		return err
	}
	row := cx.BoundaryIntervals(qc, graph.VertexID(req.V), req.ToV)
	resp.Los, resp.His = resp.Los[:0], resp.His[:0]
	for _, iv := range row {
		resp.Los, resp.His = append(resp.Los, Bits(iv.Lo)), append(resp.His, Bits(iv.Hi))
	}
	resp.IO = qc.IO
	return nil
}

func (n *Node) interval(qc *core.QueryContext, req *IntervalReq, resp *IntervalResp) error {
	cx, err := n.checkCell(req.Cell, req.U, req.V)
	if err != nil {
		return err
	}
	*resp = IntervalResp{Los: resp.Los[:0], His: resp.His[:0], Lbs: resp.Lbs[:0]}
	if len(req.Vs)+len(req.Cells) > 0 {
		if err := n.intervalBatch(cx, qc, req, resp); err != nil {
			return err
		}
	} else {
		iv := cx.DistanceIntervalCtx(qc, graph.VertexID(req.U), graph.VertexID(req.V))
		resp.Lo, resp.Hi = Bits(iv.Lo), Bits(iv.Hi)
	}
	resp.IO = qc.IO
	return nil
}

// intervalBatch answers the batch form of the interval RPC: every lookup
// reads U's quadtree, so after the first they cost no page traffic.
func (n *Node) intervalBatch(cx partition.CellIndex, qc *core.QueryContext, req *IntervalReq, resp *IntervalResp) error {
	if err := n.checkVerts(req.Cell, req.Vs); err != nil {
		return err
	}
	cells := make([]geom.Cell, len(req.Cells))
	for i, w := range req.Cells {
		c, err := cellFromWord(w)
		if err != nil {
			return rpcError{http.StatusBadRequest, err.Error()}
		}
		cells[i] = c
	}
	u := graph.VertexID(req.U)
	for _, v := range req.Vs {
		iv := cx.DistanceIntervalCtx(qc, u, graph.VertexID(v))
		resp.Los, resp.His = append(resp.Los, Bits(iv.Lo)), append(resp.His, Bits(iv.Hi))
	}
	for _, c := range cells {
		resp.Lbs = append(resp.Lbs, Bits(cx.RegionLowerBoundCtx(qc, u, c)))
	}
	return nil
}

// race answers the race RPC: one RaceRoutes per destination, in request
// order, each over its own run of the flat candidate lists.
func (n *Node) race(qc *core.QueryContext, req *RaceReq, resp *RaceResp) error {
	if len(req.Ns) != len(req.Dsts) || len(req.Offs) != len(req.Us) {
		return rpcError{http.StatusBadRequest,
			fmt.Sprintf("%d candidate counts for %d destinations, %d offsets for %d candidates",
				len(req.Ns), len(req.Dsts), len(req.Offs), len(req.Us))}
	}
	left := len(req.Offs)
	for _, c := range req.Ns {
		if c < 0 || int(c) > left {
			left = -1
			break
		}
		left -= int(c)
	}
	if left != 0 {
		return rpcError{http.StatusBadRequest,
			fmt.Sprintf("candidate counts do not add up to the %d candidates sent", len(req.Offs))}
	}
	cx, err := n.checkCell(req.Cell, req.Dsts...)
	if err == nil {
		err = n.checkVerts(req.Cell, req.Us)
	}
	if err != nil {
		return err
	}
	offs := make([]float64, len(req.Offs))
	us := make([]graph.VertexID, len(req.Us))
	for i := range req.Offs {
		offs[i] = FromBits(req.Offs[i])
		us[i] = graph.VertexID(req.Us[i])
	}
	resp.Ds, resp.Args = resp.Ds[:0], resp.Args[:0]
	at := 0
	for i, dst := range req.Dsts {
		if err := qc.Err(); err != nil {
			return err // cancelled or failed: the remaining races would be answered from nothing
		}
		end := at + int(req.Ns[i])
		d, arg := cx.RaceRoutes(qc, graph.VertexID(dst), offs[at:end], us[at:end])
		resp.Ds, resp.Args = append(resp.Ds, Bits(d)), append(resp.Args, int32(arg))
		at = end
	}
	resp.IO = qc.IO
	return nil
}

func (n *Node) path(qc *core.QueryContext, req *PathReq, resp *PathResp) error {
	cx, err := n.checkCell(req.Cell, req.U, req.V)
	if err != nil {
		return err
	}
	resp.Verts = resp.Verts[:0]
	for _, v := range cx.PathCtx(qc, graph.VertexID(req.U), graph.VertexID(req.V)) {
		resp.Verts = append(resp.Verts, uint32(v))
	}
	resp.IO = qc.IO
	return nil
}
