package cluster

import (
	"fmt"
	"math"
	"sync"

	"silc/internal/core"
	"silc/internal/diskio"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/partition"
)

// RemoteCell is the router-side stand-in for one cell's index: every
// partition.CellIndex operation becomes one RPC to the cell's replica set,
// and the batch forms (BoundaryIntervals, RaceRoutes, SourceBatch, RaceBatch)
// are what keep a cross-cell query's RPC count at a handful rather than one
// per boundary row or refinement step.
//
// Failure semantics mirror a local paged index with a broken disk, and there
// is one rule: an RPC that exhausts its replicas (or whose reply has the
// wrong shape) fails the query through qc.Fail — the engine reports the
// error and discards the result — and the method returns a safe value (+Inf
// distances, [0,+Inf) intervals, 0 lower bounds, nil paths). No call is
// retried in another form. A single replica failure never reaches here; the
// Client fails it over.
type RemoteCell struct {
	c    *Client
	cell int32
	nb   int // boundary rows of this cell (len of an intervals reply)
}

var _ partition.RemoteCellIndex = (*RemoteCell)(nil)

// RemoteCells builds the full per-cell backend slice for NewRemote from the
// router metadata's row counts.
func RemoteCells(c *Client, meta *partition.RouterMeta) []partition.RemoteCellIndex {
	out := make([]partition.RemoteCellIndex, c.p)
	for cell := 0; cell < c.p; cell++ {
		lo, hi := meta.BoundaryRows(cell)
		out[cell] = &RemoteCell{c: c, cell: int32(cell), nb: int(hi - lo)}
	}
	return out
}

// call issues one RPC for the cell on behalf of qc's query and adds the
// node-side page traffic (io, a field of resp) to the query's own. It
// reports false after failing the query.
func (rc *RemoteCell) call(qc *core.QueryContext, endpoint string, req, resp Message, io *diskio.Stats) bool {
	if err := rc.c.Call(qc.Context(), rc.cell, endpoint, req, resp); err != nil {
		qc.Fail(err)
		return false
	}
	if qc != nil {
		qc.IO.Add(*io)
	}
	return true
}

// entries checks that each of a reply's columns has want entries, failing the
// query on the first that does not.
func (rc *RemoteCell) entries(qc *core.QueryContext, want int, got ...int) bool {
	for _, n := range got {
		if n != want {
			qc.Fail(fmt.Errorf("cluster: cell %d replied with %d entries, expected %d", rc.cell, n, want))
			return false
		}
	}
	return true
}

// BoundaryIntervals implements partition.CellIndex: one RPC for the whole
// v↔boundary interval sweep. The partition layer's label table keeps the
// row, so a repeated v never reaches this call.
func (rc *RemoteCell) BoundaryIntervals(qc *core.QueryContext, v graph.VertexID, toV bool) []core.Interval {
	var resp IntervalsResp
	if !rc.call(qc, PathIntervals, &IntervalsReq{Cell: rc.cell, V: uint32(v), ToV: toV}, &resp, &resp.IO) ||
		!rc.entries(qc, rc.nb, len(resp.Los), len(resp.His)) {
		return looseIntervals(rc.nb)
	}
	return intervalsFromBits(resp.Los, resp.His)
}

// SourceBatch implements partition.RemoteCellIndex: the batch form of the
// interval RPC, one round trip for every lookup an expansion needs from
// src's quadtree.
func (rc *RemoteCell) SourceBatch(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID, cells []geom.Cell) ([]core.Interval, []float64) {
	call := intervalCalls.Get().(*intervalCall)
	defer intervalCalls.Put(call)
	req, resp := &call.req, &call.resp
	*req = IntervalReq{Cell: rc.cell, U: uint32(src), Vs: req.Vs[:0], Cells: req.Cells[:0]}
	for _, d := range dsts {
		req.Vs = append(req.Vs, uint32(d))
	}
	for _, c := range cells {
		req.Cells = append(req.Cells, CellWord(c))
	}
	lbs := make([]float64, len(cells)) // 0 is a valid lower bound: distances are non-negative
	if !rc.call(qc, PathInterval, req, resp, &resp.IO) ||
		!rc.entries(qc, len(dsts), len(resp.Los), len(resp.His)) || !rc.entries(qc, len(cells), len(resp.Lbs)) {
		return looseIntervals(len(dsts)), lbs
	}
	for i := range lbs {
		lbs[i] = FromBits(resp.Lbs[i])
	}
	return intervalsFromBits(resp.Los, resp.His), lbs
}

// intervalCall is the request and reply of one interval RPC, pooled like
// raceCall: the request's columns are written over the previous call's and
// the reply decodes into the previous reply's.
type intervalCall = rpcCall[IntervalReq, IntervalResp]

var intervalCalls = sync.Pool{New: func() any { return new(intervalCall) }}

// raceCall is the request and reply of one race RPC. Calls are pooled so that
// a warm router assembles a race without allocating: the candidate lists
// arrive in the partition router's own scratch, their wire form is written
// over the previous call's, and the reply decodes into the previous reply's
// columns.
type raceCall = rpcCall[RaceReq, RaceResp]

var raceCalls = sync.Pool{New: func() any { return new(raceCall) }}

// race sends one race RPC — destination dsts[i] against the next ns[i]
// candidates of offs/us — and returns the call holding its checked reply, or
// nil after failing the query. The caller puts a non-nil call back.
func (rc *RemoteCell) race(qc *core.QueryContext, dsts []graph.VertexID, ns []int32, offs []float64, us []graph.VertexID) *raceCall {
	call := raceCalls.Get().(*raceCall)
	req, resp := &call.req, &call.resp
	req.Cell = rc.cell
	req.Dsts, req.Ns, req.Offs, req.Us = req.Dsts[:0], append(req.Ns[:0], ns...), req.Offs[:0], req.Us[:0]
	for _, d := range dsts {
		req.Dsts = append(req.Dsts, uint32(d))
	}
	for i := range offs {
		req.Offs = append(req.Offs, Bits(offs[i]))
		req.Us = append(req.Us, uint32(us[i]))
	}
	if !rc.call(qc, PathRace, req, resp, &resp.IO) || !rc.entries(qc, len(dsts), len(resp.Ds), len(resp.Args)) {
		raceCalls.Put(call)
		return nil
	}
	return call
}

// RaceRoutes implements partition.CellIndex: the whole candidate race in
// one RPC, a batch of one destination.
func (rc *RemoteCell) RaceRoutes(qc *core.QueryContext, dst graph.VertexID, offs []float64, us []graph.VertexID) (float64, int) {
	call := rc.race(qc, []graph.VertexID{dst}, []int32{int32(len(offs))}, offs, us)
	if call == nil {
		return math.Inf(1), -1
	}
	d, arg := FromBits(call.resp.Ds[0]), int(call.resp.Args[0])
	raceCalls.Put(call)
	if arg < -1 || arg >= len(offs) {
		qc.Fail(fmt.Errorf("cluster: cell %d race winner %d of %d candidates", rc.cell, arg, len(offs)))
		return math.Inf(1), -1
	}
	return d, arg
}

// RaceBatch implements partition.RemoteCellIndex: the races of several
// destinations of the cell in one RPC.
func (rc *RemoteCell) RaceBatch(qc *core.QueryContext, dsts []graph.VertexID, ns []int32, offs []float64, us []graph.VertexID, out []float64) []float64 {
	call := rc.race(qc, dsts, ns, offs, us)
	if call == nil {
		for range dsts {
			out = append(out, math.Inf(1))
		}
		return out
	}
	for _, d := range call.resp.Ds {
		out = append(out, FromBits(d))
	}
	raceCalls.Put(call)
	return out
}

// DistanceIntervalCtx implements partition.CellIndex: the single form of the
// interval RPC.
func (rc *RemoteCell) DistanceIntervalCtx(qc *core.QueryContext, u, v graph.VertexID) core.Interval {
	call := intervalCalls.Get().(*intervalCall)
	defer intervalCalls.Put(call)
	req, resp := &call.req, &call.resp
	*req = IntervalReq{Cell: rc.cell, U: uint32(u), V: uint32(v), Vs: req.Vs[:0], Cells: req.Cells[:0]}
	if !rc.call(qc, PathInterval, req, resp, &resp.IO) {
		return core.Interval{Lo: 0, Hi: math.Inf(1)}
	}
	return core.Interval{Lo: FromBits(resp.Lo), Hi: FromBits(resp.Hi)}
}

// RegionLowerBoundCtx implements partition.CellIndex: a batch of one cell.
func (rc *RemoteCell) RegionLowerBoundCtx(qc *core.QueryContext, q graph.VertexID, cell geom.Cell) float64 {
	_, lbs := rc.SourceBatch(qc, q, nil, []geom.Cell{cell})
	return lbs[0]
}

// PathCtx implements partition.CellIndex.
func (rc *RemoteCell) PathCtx(qc *core.QueryContext, u, v graph.VertexID) []graph.VertexID {
	var resp PathResp
	if !rc.call(qc, PathPath, &PathReq{Cell: rc.cell, U: uint32(u), V: uint32(v)}, &resp, &resp.IO) {
		return nil
	}
	out := make([]graph.VertexID, len(resp.Verts))
	for i, v := range resp.Verts {
		out[i] = graph.VertexID(v)
	}
	return out
}

// Refine implements partition.CellIndex: the refiner starts from the
// node's zero-refinement interval (one RPC) and collapses straight to the
// exact distance on its first Step (a second RPC) — remote refinement has
// no useful intermediate granularity. A router's own queries never come
// here: partition.Sharded races every pair it refines over remote cells in
// one shot, same-cell pairs included.
func (rc *RemoteCell) Refine(qc *core.QueryContext, src, dst graph.VertexID) core.DistanceRefiner {
	r := &remoteRefiner{rc: rc, qc: qc, u: src, v: dst}
	r.settle(rc.DistanceIntervalCtx(qc, src, dst))
	return r
}

type remoteRefiner struct {
	rc   *RemoteCell
	qc   *core.QueryContext
	u, v graph.VertexID
	iv   core.Interval
	done bool
}

func (r *remoteRefiner) Interval() core.Interval { return r.iv }
func (r *remoteRefiner) Done() bool              { return r.done }

// settle adopts iv, done once it has collapsed or says unreachable.
func (r *remoteRefiner) settle(iv core.Interval) {
	r.iv = iv
	r.done = math.IsInf(iv.Lo, 1) || iv.Lo >= iv.Hi
}

// Step asks for the exact distance as a race with one zero-offset candidate:
// the node refines a sole candidate to exact, as a local refiner would, and
// 0 + d == d to the bit.
func (r *remoteRefiner) Step() bool {
	if r.done || r.qc.Err() != nil {
		return false
	}
	d, _ := r.rc.RaceRoutes(r.qc, r.v, []float64{0}, []graph.VertexID{r.u})
	if !r.qc.Failed() {
		r.settle(core.Interval{Lo: d, Hi: d})
	}
	return false
}

// intervalsFromBits decodes a transported interval column pair; the caller
// has checked that los and his are equally long.
func intervalsFromBits(los, his []uint64) []core.Interval {
	out := make([]core.Interval, len(los))
	for i := range out {
		out[i] = core.Interval{Lo: FromBits(los[i]), Hi: FromBits(his[i])}
	}
	return out
}

func looseIntervals(n int) []core.Interval {
	out := make([]core.Interval, n)
	for i := range out {
		out[i] = core.Interval{Lo: 0, Hi: math.Inf(1)}
	}
	return out
}
