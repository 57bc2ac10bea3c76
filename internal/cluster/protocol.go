// Package cluster implements distributed serving of a partitioned SILC
// index: cell-owning nodes answer an internal RPC surface over their local
// cell indexes, and a stateless router — holding only the global network,
// the cell labels, and the boundary closure — fans cross-cell queries out to
// the owning nodes and merges the answers exactly.
//
// The RPC surface is deliberately tiny and data-parallel: every call is one
// of the per-cell primitives the routing layer already consumes through the
// partition.CellIndex seam (progressive refinement collapsed to its exact
// endpoint, zero-refinement intervals, gateway-interval rows, route races,
// region lower bounds, path retrieval). Because a node runs the identical cell
// index code the in-process engine runs, and distances travel as raw IEEE
// 754 bits, the router's merged answers are bit-identical to the monolithic
// engine's.
package cluster

import (
	"math"

	"silc/internal/core"
	"silc/internal/diskio"
)

// RPC endpoint paths, all POST with JSON bodies. The /rpc/v1 prefix
// versions the wire contract: a node and router disagreeing on the protocol
// fail loudly on 404 rather than subtly on skewed semantics.
const (
	PathIntervals = "/rpc/v1/intervals" // zero-refinement intervals, v↔every boundary
	PathInterval  = "/rpc/v1/interval"  // zero-refinement lookups from one source: one pair, or a batch
	PathExact     = "/rpc/v1/exact"     // fully refined distance for one pair
	PathRace      = "/rpc/v1/race"      // min over i of offs[i]+d(us[i],dst), exact
	PathRegion    = "/rpc/v1/region"    // lower bound to a rectangle
	PathPath      = "/rpc/v1/path"      // within-cell shortest path
)

// Distances cross the wire as their IEEE 754 bit patterns (uint64), never
// as decimal text: JSON number formatting would round-trip most float64
// values but not guarantee it for every value and not represent ±Inf at
// all, and the cluster's contract is bit-identical answers.

// Bits encodes a float64 for transport.
func Bits(f float64) uint64 { return math.Float64bits(f) }

// FromBits decodes a transported float64.
func FromBits(b uint64) float64 { return math.Float64frombits(b) }

// IOStats is the per-call buffer-pool traffic the node charged answering a
// request. The router folds it into the originating query's own counters,
// so a cross-cell query's I/O attribution spans the cluster exactly like it
// spans the shared pool in process.
type IOStats struct {
	Hits          int64 `json:"hits,omitempty"`
	Misses        int64 `json:"misses,omitempty"`
	Evictions     int64 `json:"evictions,omitempty"`
	Reads         int64 `json:"reads,omitempty"`
	BlocksDecoded int64 `json:"blocks_decoded,omitempty"`
}

func toIOStats(s diskio.Stats) IOStats {
	return IOStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		Reads:         s.Reads,
		BlocksDecoded: s.BlocksDecoded,
	}
}

// Fold adds the node-side traffic to a router-side query context.
func (s IOStats) Fold(qc *core.QueryContext) {
	if qc == nil {
		return
	}
	qc.IO.Add(diskio.Stats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		Reads:         s.Reads,
		BlocksDecoded: s.BlocksDecoded,
	})
}

// IntervalsReq asks for the zero-refinement interval between V and every
// boundary vertex of Cell, in closure row order. ToV selects the direction:
// boundary→V when true, V→boundary when false.
type IntervalsReq struct {
	Cell int32  `json:"cell"`
	V    uint32 `json:"v"`
	ToV  bool   `json:"to_v"`
}

type IntervalsResp struct {
	Los []uint64 `json:"los"`
	His []uint64 `json:"his"`
	IO  IOStats  `json:"io"`
}

// IntervalReq asks for zero-refinement lookups in U's quadtree. The single
// form (Vs and Rects empty) asks for the interval on d_cell(U, V). The batch
// form ignores V and asks for the interval on d_cell(U, Vs[i]) for every i
// and for the region lower bound from U to every rectangle of Rects, four
// words each (MinX, MinY, MaxX, MaxY bits) — everything a search's expansion
// of one object-hierarchy node needs from the source's cell, in one round
// trip. A node that predates the batch form ignores the extra fields and
// answers the single form; the router sees the missing arrays and falls back
// to one call per lookup.
type IntervalReq struct {
	Cell  int32    `json:"cell"`
	U     uint32   `json:"u"`
	V     uint32   `json:"v"`
	Vs    []uint32 `json:"vs,omitempty"`
	Rects []uint64 `json:"rects,omitempty"`
}

// IntervalResp carries Lo/Hi for the single form; Los/His (one per Vs entry)
// and Lbs (one per rectangle) for the batch form.
type IntervalResp struct {
	Lo  uint64   `json:"lo"`
	Hi  uint64   `json:"hi"`
	IO  IOStats  `json:"io"`
	Los []uint64 `json:"los,omitempty"`
	His []uint64 `json:"his,omitempty"`
	Lbs []uint64 `json:"lbs,omitempty"`
}

// ExactReq asks for the fully refined within-cell distance d_cell(U, V)
// (+Inf bits when unreachable inside the cell).
type ExactReq struct {
	Cell int32  `json:"cell"`
	U    uint32 `json:"u"`
	V    uint32 `json:"v"`
}

type ExactResp struct {
	D  uint64  `json:"d"`
	IO IOStats `json:"io"`
}

// RaceReq asks for min over i of offs[i] + d_cell(us[i], Dst), resolved
// exactly (candidates refine in lower-bound order with a cutoff).
type RaceReq struct {
	Cell int32    `json:"cell"`
	Dst  uint32   `json:"dst"`
	Offs []uint64 `json:"offs"`
	Us   []uint32 `json:"us"`
}

type RaceResp struct {
	D   uint64  `json:"d"`
	Arg int     `json:"arg"` // index into Offs/Us; -1 when all unreachable
	IO  IOStats `json:"io"`
}

// RegionReq asks for the cell index's lower bound on the distance from Q to
// any vertex inside the rectangle.
type RegionReq struct {
	Cell int32  `json:"cell"`
	Q    uint32 `json:"q"`
	MinX uint64 `json:"min_x"`
	MinY uint64 `json:"min_y"`
	MaxX uint64 `json:"max_x"`
	MaxY uint64 `json:"max_y"`
}

type RegionResp struct {
	D  uint64  `json:"d"`
	IO IOStats `json:"io"`
}

// PathReq asks for a within-cell shortest path from U to V, in cell-local
// vertex ids.
type PathReq struct {
	Cell int32  `json:"cell"`
	U    uint32 `json:"u"`
	V    uint32 `json:"v"`
}

type PathResp struct {
	Verts []uint32 `json:"verts"`
	IO    IOStats  `json:"io"`
}

// ErrorResp is the JSON body of every non-200 RPC response.
type ErrorResp struct {
	Error string `json:"error"`
}
