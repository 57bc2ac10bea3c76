package partition

import (
	"fmt"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
)

// CellIndex is the whole contract between the cross-cell routing layer and
// one cell's index, in the cell's LOCAL vertex ids, in five methods:
// zero-refinement intervals, region lower bounds and path retrieval — the
// per-pair primitives of a SILC index — plus the two per-cell batches the
// router is built from, the destination-label row and the route race. Two
// types implement it: localCell, the in-process adapter over *core.Index,
// and cluster.RemoteCell, which turns every method into one RPC to the cell's
// owning nodes. The routing code above the seam asks the same questions of
// both and gets the same bits. Progressive refinement is not on the seam: a
// router steps an in-process cell's *core.Index itself, and sends a remote
// cell each race whole.
//
// Implementations report failures through qc.Fail and return safe values
// (+Inf distances, [0,+Inf) intervals, 0 lower bounds, nil paths), exactly
// like a storage error on a local index.
type CellIndex interface {
	DistanceIntervalCtx(qc *core.QueryContext, u, v graph.VertexID) core.Interval
	RegionLowerBoundCtx(qc *core.QueryContext, q graph.VertexID, cell geom.Cell) float64
	PathCtx(qc *core.QueryContext, u, v graph.VertexID) []graph.VertexID
	// BoundaryIntervals returns the zero-refinement interval between v and
	// every boundary vertex of the cell, in closure row order: boundary→v
	// when toV, v→boundary otherwise. It fills a miss in the
	// destination-label table (labels.go), which keeps the returned slice and
	// shares it between queries.
	BoundaryIntervals(qc *core.QueryContext, v graph.VertexID, toV bool) []core.Interval
	// RaceRoutes resolves min over candidates i of offs[i] + d_cell(us[i], dst)
	// exactly, returning the minimum and the index achieving it (-1 when
	// every candidate is unreachable): RaceCellRoutes, run where the cell's
	// quadtrees are.
	RaceRoutes(qc *core.QueryContext, dst graph.VertexID, offs []float64, us []graph.VertexID) (float64, int)
}

// RemoteCellIndex is what a cell served from another process adds to the
// seam, because there every call is a round trip: two batches. SourceBatch
// answers, in one call, a set of lookups that all start at one source vertex
// — which on a SILC cell index means they all read the same quadtree —
// DistanceIntervalCtx(qc, src, d) for every d in dsts and
// RegionLowerBoundCtx(qc, src, c) for every c in cells, in argument order.
// RaceBatch is RaceRoutes for several destinations of the cell in one call:
// dsts[i] races the next ns[i] candidates of the flat lists offs/us, and the
// minima are appended to out in argument order (+Inf for every destination
// after a failure, which has failed the query). Sharded.HintExpand drives the
// first with what a search is about to ask of the source's own cell,
// Sharded.HintRefine the second with the refiners a search is about to step.
// In process every lookup is already a direct call, so localCell has
// neither.
type RemoteCellIndex interface {
	CellIndex
	SourceBatch(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID, cells []geom.Cell) (ivs []core.Interval, lbs []float64)
	RaceBatch(qc *core.QueryContext, dsts []graph.VertexID, ns []int32, offs []float64, us []graph.VertexID, out []float64) []float64
}

// localCell is the in-process CellIndex: the cell's *core.Index answers the
// per-pair methods itself, and the two batches are loops over it. One is
// built per cell when the index is assembled (bindCells), so qcell hands out
// a pointer and the query path allocates nothing for the seam.
type localCell struct {
	*core.Index
	boundary []graph.VertexID // the cell's boundary vertices, cell-local, in closure row order
}

func (c *localCell) BoundaryIntervals(qc *core.QueryContext, v graph.VertexID, toV bool) []core.Interval {
	row := make([]core.Interval, len(c.boundary))
	for i, b := range c.boundary {
		if toV {
			row[i] = c.DistanceIntervalCtx(qc, b, v)
		} else {
			row[i] = c.DistanceIntervalCtx(qc, v, b)
		}
	}
	return row
}

func (c *localCell) RaceRoutes(qc *core.QueryContext, dst graph.VertexID, offs []float64, us []graph.VertexID) (float64, int) {
	return RaceCellRoutes(c.Index, qc, dst, offs, us)
}

// bindCells puts every in-process cell behind the seam.
func (s *Sharded) bindCells() {
	for c, cx := range s.cells {
		cx.seam = &localCell{Index: cx.ix, boundary: s.BoundaryLocals(c)}
	}
}

// qcell returns the query index serving cell c: the in-process cell behind
// its adapter, or the remote backend installed by NewRemote.
func (s *Sharded) qcell(c int32) CellIndex {
	if s.remote != nil {
		return s.remote[c]
	}
	return s.cells[c].seam
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

// BoundaryRows returns the closure row range [lo, hi) of cell c.
func (s *Sharded) BoundaryRows(c int) (lo, hi int32) { return s.cl.Rows(int32(c)) }

// NewRemote assembles a router-side Sharded over remote cell backends: the
// global network, cell labels, boundary closure, and self-contained flags
// come from meta (OpenPagedMeta), while every per-cell operation goes
// through cells[c] — in a cluster, an RPC client for the cell's owning
// nodes. The result answers the full core.QueryIndex surface with exactly
// the in-process router's arithmetic, holds no cell image data, and is safe
// for unlimited concurrent queries like any Sharded.
func NewRemote(meta *RouterMeta, cells []RemoteCellIndex) (*Sharded, error) {
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
	s := meta.assemble(nil, nil)
	s.remote = cells
	return s, nil
}
