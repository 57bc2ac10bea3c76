package cluster

import (
	"fmt"
	"math"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/partition"
)

// RemoteCell is the router-side stand-in for one cell's index: every
// partition.CellIndex operation becomes one RPC to the cell's replica set.
// It also implements the batch hooks (BoundaryIntervaler, RouteRacer,
// SourceBatcher), which is what keeps a cross-cell query's RPC count at a
// handful rather than one per boundary row or refinement step.
//
// Failure semantics mirror a local paged index with a broken disk: when
// every replica fails, the error is recorded on the query context via Fail
// — the engine reports it and discards the result — and the method returns
// a safe value (+Inf distances, [0,+Inf) intervals, 0 lower bounds, nil
// paths). A single replica failure never reaches here; the Client retries
// it away.
type RemoteCell struct {
	c    *Client
	cell int32
	nb   int // boundary rows of this cell (len of an intervals reply)
}

var (
	_ partition.CellIndex          = (*RemoteCell)(nil)
	_ partition.BoundaryIntervaler = (*RemoteCell)(nil)
	_ partition.RouteRacer         = (*RemoteCell)(nil)
	_ partition.SourceBatcher      = (*RemoteCell)(nil)
)

// RemoteCells builds the full per-cell backend slice for NewRemote from the
// router metadata's row counts.
func RemoteCells(c *Client, meta *partition.RouterMeta) []partition.CellIndex {
	out := make([]partition.CellIndex, c.p)
	for cell := 0; cell < c.p; cell++ {
		lo, hi := meta.BoundaryRows(cell)
		out[cell] = &RemoteCell{c: c, cell: int32(cell), nb: int(hi - lo)}
	}
	return out
}

// BoundaryIntervals implements partition.BoundaryIntervaler: one RPC for
// the whole v↔boundary interval sweep. The partition layer's label table
// keeps the row, so a repeated v never reaches this call.
func (rc *RemoteCell) BoundaryIntervals(qc *core.QueryContext, v graph.VertexID, toV bool) []core.Interval {
	var resp IntervalsResp
	err := rc.c.Call(qc.Context(), rc.cell, PathIntervals,
		&IntervalsReq{Cell: rc.cell, V: uint32(v), ToV: toV}, &resp)
	if err != nil {
		qc.Fail(err)
		return looseIntervals(rc.nb)
	}
	resp.IO.Fold(qc)
	if len(resp.Los) != rc.nb || len(resp.His) != rc.nb {
		qc.Fail(errRowCount(rc.cell, len(resp.Los), rc.nb))
		return looseIntervals(rc.nb)
	}
	return intervalsFromBits(resp.Los, resp.His)
}

// SourceBatch implements partition.SourceBatcher: the batch form of the
// interval RPC, one round trip for every lookup an expansion needs from
// src's quadtree. A failed call is not an error of the query — the caller
// falls back to the per-lookup calls, which report their own failures.
func (rc *RemoteCell) SourceBatch(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID, rects []geom.Rect) ([]core.Interval, []float64, bool) {
	req := &IntervalReq{Cell: rc.cell, U: uint32(src),
		Vs: make([]uint32, len(dsts)), Rects: make([]uint64, 0, 4*len(rects))}
	for i, d := range dsts {
		req.Vs[i] = uint32(d)
	}
	for _, r := range rects {
		req.Rects = append(req.Rects, Bits(r.MinX), Bits(r.MinY), Bits(r.MaxX), Bits(r.MaxY))
	}
	var resp IntervalResp
	if err := rc.c.Call(qc.Context(), rc.cell, PathInterval, req, &resp); err != nil {
		return nil, nil, false
	}
	resp.IO.Fold(qc)
	if len(resp.Los) != len(dsts) || len(resp.His) != len(dsts) || len(resp.Lbs) != len(rects) {
		return nil, nil, false // a node that only speaks the single form
	}
	lbs := make([]float64, len(rects))
	for i := range lbs {
		lbs[i] = FromBits(resp.Lbs[i])
	}
	return intervalsFromBits(resp.Los, resp.His), lbs, true
}

// RaceRoutes implements partition.RouteRacer: the whole candidate race in
// one RPC.
func (rc *RemoteCell) RaceRoutes(qc *core.QueryContext, dst graph.VertexID, offs []float64, us []graph.VertexID) (float64, int) {
	req := &RaceReq{Cell: rc.cell, Dst: uint32(dst),
		Offs: make([]uint64, len(offs)), Us: make([]uint32, len(us))}
	for i := range offs {
		req.Offs[i] = Bits(offs[i])
		req.Us[i] = uint32(us[i])
	}
	var resp RaceResp
	if err := rc.c.Call(qc.Context(), rc.cell, PathRace, req, &resp); err != nil {
		qc.Fail(err)
		return math.Inf(1), -1
	}
	resp.IO.Fold(qc)
	if resp.Arg < -1 || resp.Arg >= len(offs) {
		qc.Fail(errRowCount(rc.cell, resp.Arg, len(offs)))
		return math.Inf(1), -1
	}
	return FromBits(resp.D), resp.Arg
}

// DistanceIntervalCtx implements partition.CellIndex.
func (rc *RemoteCell) DistanceIntervalCtx(qc *core.QueryContext, u, v graph.VertexID) core.Interval {
	var resp IntervalResp
	err := rc.c.Call(qc.Context(), rc.cell, PathInterval,
		&IntervalReq{Cell: rc.cell, U: uint32(u), V: uint32(v)}, &resp)
	if err != nil {
		qc.Fail(err)
		return core.Interval{Lo: 0, Hi: math.Inf(1)}
	}
	resp.IO.Fold(qc)
	return core.Interval{Lo: FromBits(resp.Lo), Hi: FromBits(resp.Hi)}
}

// RegionLowerBoundCtx implements partition.CellIndex.
func (rc *RemoteCell) RegionLowerBoundCtx(qc *core.QueryContext, q graph.VertexID, rect geom.Rect) float64 {
	var resp RegionResp
	err := rc.c.Call(qc.Context(), rc.cell, PathRegion, &RegionReq{
		Cell: rc.cell, Q: uint32(q),
		MinX: Bits(rect.MinX), MinY: Bits(rect.MinY),
		MaxX: Bits(rect.MaxX), MaxY: Bits(rect.MaxY),
	}, &resp)
	if err != nil {
		qc.Fail(err)
		return 0 // distances are non-negative, so 0 is a valid lower bound
	}
	resp.IO.Fold(qc)
	return FromBits(resp.D)
}

// PathCtx implements partition.CellIndex.
func (rc *RemoteCell) PathCtx(qc *core.QueryContext, u, v graph.VertexID) []graph.VertexID {
	var resp PathResp
	err := rc.c.Call(qc.Context(), rc.cell, PathPath,
		&PathReq{Cell: rc.cell, U: uint32(u), V: uint32(v)}, &resp)
	if err != nil {
		qc.Fail(err)
		return nil
	}
	resp.IO.Fold(qc)
	out := make([]graph.VertexID, len(resp.Verts))
	for i, v := range resp.Verts {
		out[i] = graph.VertexID(v)
	}
	return out
}

// Refine implements partition.CellIndex: the refiner starts from the
// node's zero-refinement interval (one RPC) and collapses straight to the
// exact distance on its first Step (a second RPC) — remote refinement has
// no useful intermediate granularity, and the routing layer's RouteRacer
// fast path means Step is only ever reached for intra-cell pairs.
func (rc *RemoteCell) Refine(qc *core.QueryContext, src, dst graph.VertexID) core.DistanceRefiner {
	return rc.RefineKnown(qc, src, dst, rc.DistanceIntervalCtx(qc, src, dst))
}

// RefineKnown implements partition.SourceBatcher: Refine without the first
// RPC, for a pair whose zero-refinement interval a SourceBatch call already
// delivered.
func (rc *RemoteCell) RefineKnown(qc *core.QueryContext, src, dst graph.VertexID, iv core.Interval) core.DistanceRefiner {
	r := &remoteRefiner{rc: rc, qc: qc, u: src, v: dst, iv: iv}
	if r.iv.Lo >= r.iv.Hi || math.IsInf(r.iv.Lo, 1) {
		r.done = true
		r.oor = math.IsInf(r.iv.Lo, 1)
	}
	return r
}

type remoteRefiner struct {
	rc   *RemoteCell
	qc   *core.QueryContext
	u, v graph.VertexID
	iv   core.Interval
	done bool
	oor  bool
}

func (r *remoteRefiner) Interval() core.Interval { return r.iv }
func (r *remoteRefiner) Done() bool              { return r.done }
func (r *remoteRefiner) OutOfRange() bool        { return r.oor }

func (r *remoteRefiner) Step() bool {
	if r.done {
		return false
	}
	if r.qc.Err() != nil {
		return false
	}
	var resp ExactResp
	err := r.rc.c.Call(r.qc.Context(), r.rc.cell, PathExact,
		&ExactReq{Cell: r.rc.cell, U: uint32(r.u), V: uint32(r.v)}, &resp)
	if err != nil {
		r.qc.Fail(err)
		return false
	}
	resp.IO.Fold(r.qc)
	d := FromBits(resp.D)
	r.iv = core.Interval{Lo: d, Hi: d}
	r.done = true
	r.oor = math.IsInf(d, 1)
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

func errRowCount(cell int32, got, want int) error {
	return fmt.Errorf("cluster: cell %d replied with %d entries, expected %d", cell, got, want)
}
