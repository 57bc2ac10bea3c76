package partition

import (
	"fmt"
	"math"
	"sort"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
)

// CellIndex is what the cross-cell routing layer needs from one cell's
// index: progressive refinement, zero-refinement intervals, region lower
// bounds, and path retrieval — all in the cell's LOCAL vertex ids. The
// in-process *core.Index satisfies it directly; a cluster deployment
// substitutes an RPC-backed implementation per remote cell, and the routing
// code above this seam cannot tell the difference.
type CellIndex interface {
	Refine(qc *core.QueryContext, src, dst graph.VertexID) core.DistanceRefiner
	DistanceIntervalCtx(qc *core.QueryContext, u, v graph.VertexID) core.Interval
	RegionLowerBoundCtx(qc *core.QueryContext, q graph.VertexID, rect geom.Rect) float64
	PathCtx(qc *core.QueryContext, u, v graph.VertexID) []graph.VertexID
}

var _ CellIndex = (*core.Index)(nil)

// The optional batch interfaces below collapse the routing layer's per-row
// loops into one call each. A local *core.Index deliberately implements
// none of them — the in-process hot path (and its allocation budgets) is
// untouched — while an RPC-backed cell turns |B| network round-trips into
// one. Implementations report failures through qc.Fail and return safe
// values (+Inf distances, [0,+Inf) intervals), exactly like a storage error
// on a local index.

// BoundaryIntervaler returns the zero-refinement interval between v and
// every boundary vertex of the cell, in closure row order. toV selects the
// direction: boundary→v when true, v→boundary when false. It is how a miss
// in the destination-label table (labels.go) is filled in one call; the
// table keeps the returned slice and shares it between queries.
type BoundaryIntervaler interface {
	BoundaryIntervals(qc *core.QueryContext, v graph.VertexID, toV bool) []core.Interval
}

// RouteRacer resolves min over candidates i of offs[i] + d_cell(us[i], dst)
// exactly, returning the minimum and the index achieving it (-1 when every
// candidate is unreachable). It is the one-shot form of the route race the
// refiner otherwise steps through: candidates are sorted by their interval
// lower bound and refined in that order with a cutoff, so the result is the
// same exact float64 the progressive race converges to.
type RouteRacer interface {
	RaceRoutes(qc *core.QueryContext, dst graph.VertexID, offs []float64, us []graph.VertexID) (float64, int)
}

// SourceBatcher answers, in one call, a set of lookups that all start at one
// source vertex — which on a SILC cell index means they all read the same
// quadtree: DistanceIntervalCtx(qc, src, d) for every d in dsts and
// RegionLowerBoundCtx(qc, src, r) for every r in rects, in argument order.
// ok is false when the batch could not be answered; the caller then makes the
// calls one by one. RefineKnown is Refine for a pair whose zero-refinement
// interval the caller already holds from such a batch. Sharded.HintExpand
// drives it with what a search is about to ask of the source's own cell.
type SourceBatcher interface {
	SourceBatch(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID, rects []geom.Rect) (ivs []core.Interval, lbs []float64, ok bool)
	RefineKnown(qc *core.QueryContext, src, dst graph.VertexID, iv core.Interval) core.DistanceRefiner
}

// qcell returns the query index serving cell c: the in-process cell index,
// or the remote backend installed by NewRemote.
func (s *Sharded) qcell(c int32) CellIndex {
	if s.remote != nil {
		return s.remote[c]
	}
	return s.cells[c].ix
}

// CellExact fully refines the within-cell distance from u to v on one cell
// index (+Inf when unreachable inside the cell). It is core.ExactDistance
// over the CellIndex seam — node servers use it to answer exact and race
// RPCs with exactly the arithmetic the in-process router runs.
func CellExact(cx CellIndex, qc *core.QueryContext, u, v graph.VertexID) float64 {
	r := cx.Refine(qc, u, v)
	for !r.Done() {
		if qc.Err() != nil {
			break
		}
		if !r.Step() {
			break
		}
	}
	if r.OutOfRange() {
		return math.Inf(1)
	}
	return r.Interval().Lo
}

// RaceCellRoutes resolves min over i of offs[i] + d_cell(us[i], dst) on one
// cell index: candidates sort by their zero-refinement lower bound and
// refine to exact in that order, with a cutoff once no remaining candidate
// can be strictly shorter. The minimum is exact and identical to stepping
// the race progressively, because refining past the cutoff can only raise a
// candidate's value. Node servers serve the race RPC with it.
func RaceCellRoutes(cx CellIndex, qc *core.QueryContext, dst graph.VertexID, offs []float64, us []graph.VertexID) (float64, int) {
	type cand struct {
		i  int
		lo float64
	}
	cands := make([]cand, 0, len(offs))
	for i := range offs {
		if math.IsInf(offs[i], 1) {
			continue
		}
		iv := cx.DistanceIntervalCtx(qc, us[i], dst)
		if math.IsInf(iv.Lo, 1) {
			continue
		}
		cands = append(cands, cand{i: i, lo: offs[i] + iv.Lo})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].lo < cands[b].lo })
	best, arg := math.Inf(1), -1
	for _, c := range cands {
		if c.lo >= best {
			break // sorted: no remaining candidate can be strictly shorter
		}
		if qc.Err() != nil {
			break
		}
		d := CellExact(cx, qc, us[c.i], dst)
		if t := offs[c.i] + d; t < best {
			best, arg = t, c.i
		}
	}
	return best, arg
}

// The node-facing accessors below expose exactly the per-cell state a
// cluster node needs to serve its RPC surface, in local vertex ids.

// CellIndexAt returns cell c's query index.
func (s *Sharded) CellIndexAt(c int) CellIndex { return s.qcell(int32(c)) }

// CellVertexCount returns the number of vertices in cell c — the exclusive
// upper bound of its local vertex ids.
func (s *Sharded) CellVertexCount(c int) int { return len(s.asn.Verts[c]) }

// BoundaryLocals returns the local vertex ids of cell c's boundary
// vertices, in closure row order. The returned slice is freshly allocated.
func (s *Sharded) BoundaryLocals(c int) []graph.VertexID {
	lo, hi := s.cl.Rows(int32(c))
	out := make([]graph.VertexID, hi-lo)
	for r := lo; r < hi; r++ {
		out[r-lo] = graph.VertexID(s.asn.LocalOf[s.cl.B[r]])
	}
	return out
}

// SelfContained reports whether cell c's intra-cell distances need no
// closure routing.
func (s *Sharded) SelfContained(c int) bool { return s.selfContained[c] }

// BoundaryRows returns the closure row range [lo, hi) of cell c.
func (s *Sharded) BoundaryRows(c int) (lo, hi int32) { return s.cl.Rows(int32(c)) }

// NewRemote assembles a router-side Sharded over remote cell backends: the
// global network, cell labels, boundary closure, and self-contained flags
// come from meta (OpenPagedMeta), while every per-cell operation goes
// through cells[c] — in a cluster, an RPC client for the cell's owning
// nodes. The result answers the full core.QueryIndex surface with exactly
// the in-process router's arithmetic, holds no cell image data, and is safe
// for unlimited concurrent queries like any Sharded.
func NewRemote(meta *RouterMeta, cells []CellIndex) (*Sharded, error) {
	if meta == nil {
		return nil, fmt.Errorf("partition: NewRemote needs router metadata")
	}
	if len(cells) != meta.asn.P {
		return nil, fmt.Errorf("partition: %d cell backends for %d partitions", len(cells), meta.asn.P)
	}
	for c, cx := range cells {
		if cx == nil {
			return nil, fmt.Errorf("partition: cell %d has no backend", c)
		}
	}
	s := &Sharded{
		g:             meta.g,
		asn:           meta.asn,
		cl:            meta.cl,
		selfContained: meta.selfContained,
		remote:        cells,
		comp:          meta.comp,
		labels:        newLabelTables(meta.asn.P, meta.cl.NB()),
	}
	s.stats = Stats{
		Partitions:       meta.asn.P,
		Vertices:         meta.g.NumVertices(),
		Edges:            meta.g.NumEdges(),
		BoundaryVertices: meta.cl.NB(),
		CutEdges:         meta.asn.CutEdges,
		ClosureBytes:     meta.cl.SizeBytes(),
	}
	for _, sc := range meta.selfContained {
		if sc {
			s.stats.SelfContained++
		}
	}
	return s, nil
}
