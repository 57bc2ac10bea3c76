package knn

import (
	"silc/internal/core"
	"silc/internal/graph"
)

// RangeSearchCtx returns every object within network distance radius of q —
// the paper's "general framework" claim instantiated for a second query
// type. It runs on the kNN engine itself (VariantRange with the radius as
// its distance bound): object-index blocks prune on their interval lower
// bound, objects accept on δ⁺ <= radius, reject on δ⁻ > radius, and refine
// only while their interval straddles the radius. Results are unordered;
// distances are intervals refined just far enough to decide membership. The
// caller's query context (nil = a fresh one) attributes I/O and can cancel
// the search between refinements.
func RangeSearchCtx(ix core.QueryIndex, qc *core.QueryContext, objs *Objects, q graph.VertexID, radius float64) Result {
	return SearchSpec(ix, qc, objs, q, Spec{K: objs.Len(), Variant: VariantRange, MaxDist: radius})
}
