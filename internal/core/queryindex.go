package core

import (
	"silc/internal/diskio"
	"silc/internal/geom"
	"silc/internal/graph"
)

// DistanceRefiner is the progressive-refinement surface generic query
// algorithms consume: a network-distance interval that tightens step by step
// toward the exact value. *Refiner implements it for the monolithic index;
// the partition subsystem implements it by racing candidate routes through
// the boundary closure.
type DistanceRefiner interface {
	// Interval returns the current interval, guaranteed to contain the true
	// network distance.
	Interval() Interval
	// Step refines once; it returns false when no further tightening is
	// possible.
	Step() bool
	// Done reports whether the interval is exact. An unreachable
	// destination (a lenient cell index) is done at [+Inf, +Inf].
	Done() bool
}

// QueryIndex is the query-time surface the kNN algorithms (and every other
// generic consumer) need from a network-distance index. Both the monolithic
// *Index and the sharded partition index implement it, so one set of query
// algorithms serves both.
type QueryIndex interface {
	// Network returns the indexed network (for the sharded index, the full
	// global network).
	Network() *graph.Network
	// Pool returns the buffer pool of the paged store, nil for
	// memory-resident indexes. Sharded indexes expose the one pool all
	// their cells share.
	Pool() *diskio.Pool
	// Refine starts progressive refinement for (src, dst), charging every
	// page access to qc (nil = untracked).
	Refine(qc *QueryContext, src, dst graph.VertexID) DistanceRefiner
	// RegionLowerBoundCtx returns a lower bound on the network distance from
	// q to any vertex whose Morton code lies in cell — the region of one node
	// of the object index. qc carries per-query routing state for
	// implementations that need it; the monolithic index ignores it.
	RegionLowerBoundCtx(qc *QueryContext, q graph.VertexID, cell geom.Cell) float64
}

// ExpandHinter is an optional QueryIndex extension for indexes on which
// every Refine, RegionLowerBoundCtx and refiner Step is expensive to issue on
// its own — a cluster router pays one RPC each. A best-first search expands
// one object-hierarchy node at a time and knows, before it makes them, every
// call the expansion is about to make, and at a collision it knows which
// refiners the query will have to drive to exact; handing either set over in
// one piece lets the index fetch it in one batch. Search algorithms detect
// the extension by type assertion once per query. The monolithic *Index does
// not implement it.
//
// The contract of both announcements: a hint changes how many calls the
// index makes underneath and nothing else. Every Refine,
// RegionLowerBoundCtx, Interval and Step returns exactly what it would have
// returned without the hint — a refiner's visible interval still changes
// only at its own Step — anything announced may never happen, and anything
// may be announced more than once. The slices are only read during the call.
type ExpandHinter interface {
	// WantsExpandHints reports whether the hints do anything on this index.
	// Searches ask once per query and build no hints when it is false (a
	// sharded index over in-process cells).
	WantsExpandHints() bool
	// HintExpand announces that, before the query ends or its source
	// changes, the caller expects to call Refine(qc, src, d) for the d in
	// dsts and RegionLowerBoundCtx(qc, src, c) for the c in cells.
	HintExpand(qc *QueryContext, src graph.VertexID, dsts []graph.VertexID, cells []geom.Cell)
	// HintRefine announces that, before the query ends or its source
	// changes, the caller expects to Step the refiners of the pairs
	// (src, d), d in dsts, until they are exact. Every d was handed to
	// Refine(qc, src, d) earlier in the same query.
	HintRefine(qc *QueryContext, src graph.VertexID, dsts []graph.VertexID)
}

var _ QueryIndex = (*Index)(nil)
var _ DistanceRefiner = (*Refiner)(nil)

// Refine implements QueryIndex.
func (ix *Index) Refine(qc *QueryContext, src, dst graph.VertexID) DistanceRefiner {
	return ix.NewRefinerCtx(qc, src, dst)
}

// ExactDistance fully refines (src, dst) on any QueryIndex and returns the
// exact network distance (+Inf when dst is unreachable).
// When qc carries a cancelled context the loop stops early and the current
// lower bound is returned; callers surfacing errors check qc.Err after.
func ExactDistance(ix QueryIndex, qc *QueryContext, src, dst graph.VertexID) float64 {
	return ApproxDistance(ix, qc, src, dst, 0)
}

// ApproxDistance refines (src, dst) until its interval certifies
// δ⁺ ≤ (1+eps)·δ⁻ and returns δ⁻, so the result d satisfies
// d ≤ true ≤ (1+eps)·d. At eps = 0 it is ExactDistance: the refinement runs
// until the refiner is done.
func ApproxDistance(ix QueryIndex, qc *QueryContext, src, dst graph.VertexID, eps float64) float64 {
	r := ix.Refine(qc, src, dst)
	for !r.Done() {
		if eps > 0 {
			if iv := r.Interval(); iv.Hi <= (1+eps)*iv.Lo {
				break
			}
		}
		if qc.Err() != nil {
			break
		}
		if !r.Step() {
			break
		}
	}
	return r.Interval().Lo
}
