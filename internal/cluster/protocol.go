// Package cluster implements distributed serving of a partitioned SILC
// index: cell-owning nodes answer an internal RPC surface over their local
// cell indexes, and a stateless router — holding only the global network,
// the cell labels, and the boundary closure — fans cross-cell queries out to
// the owning nodes and merges the answers exactly.
//
// The RPC surface is deliberately tiny and data-parallel: four calls carry
// the six methods of the partition.CellIndex seam. `interval` answers the
// zero-refinement lookups from one source vertex — a pair's interval, or a
// batch of intervals and region lower bounds; `intervals` a gateway-interval
// row; `race` a batch of route races on one cell, of which a fully refined
// pair distance is the one-destination, one-candidate case; `path` a within-cell shortest path. Because a node runs
// the identical cell index code the in-process engine runs, and distances
// travel as raw IEEE 754 bits, the router's merged answers are bit-identical
// to the monolithic engine's.
package cluster

import (
	"fmt"
	"math"

	"silc/internal/diskio"
	"silc/internal/geom"
)

// RPC endpoint paths, all POST with binary frame bodies (wire.go) in both
// directions. The /rpc/v2 prefix versions the wire contract: a node and
// router disagreeing on the protocol fail loudly on 404 rather than subtly on
// skewed semantics. v1 carried the same messages as JSON.
const (
	PathIntervals = "/rpc/v2/intervals" // zero-refinement intervals, v↔every boundary
	PathInterval  = "/rpc/v2/interval"  // zero-refinement lookups from one source: one pair, or a batch with region lower bounds
	PathRace      = "/rpc/v2/race"      // per destination, min over its candidates i of offs[i]+d(us[i],dst), exact; one destination with one zero-offset candidate = a pair's exact distance
	PathPath      = "/rpc/v2/path"      // within-cell shortest path
)

// endpoints lists the whole RPC surface, for the per-endpoint metric tables.
var endpoints = []string{PathIntervals, PathInterval, PathRace, PathPath}

// Distances cross the wire as their IEEE 754 bit patterns (uint64), never
// as decimal text, so ±Inf, NaN payloads, −0 and the last ulp all survive:
// the cluster's contract is bit-identical answers.

// Bits encodes a float64 for transport.
func Bits(f float64) uint64 { return math.Float64bits(f) }

// FromBits decodes a transported float64.
func FromBits(b uint64) float64 { return math.Float64frombits(b) }

// Every reply's IO field is the buffer-pool traffic the node charged
// answering the request. The router adds it to the originating query's own
// counters, so a cross-cell query's I/O attribution spans the cluster exactly
// like it spans the shared pool in process.
//
// Each request and reply below is one frame shape of wire.go, its fields on
// the wire in declaration order.

// IntervalsReq asks for the zero-refinement interval between V and every
// boundary vertex of Cell, in closure row order. ToV selects the direction:
// boundary→V when true, V→boundary when false. The JSON tags of the
// Intervals pair serve only the benchmark's cluster.json_codec_us rung; no
// RPC encodes JSON.
type IntervalsReq struct {
	Cell int32  `json:"cell"`
	V    uint32 `json:"v"`
	ToV  bool   `json:"to_v"`
}

type IntervalsResp struct {
	Los []uint64     `json:"los"`
	His []uint64     `json:"his"`
	IO  diskio.Stats `json:"io"`
}

// IntervalReq asks for zero-refinement lookups in U's quadtree. The single
// form (Vs and Cells empty) asks for the interval on d_cell(U, V). The batch
// form ignores V and asks for the interval on d_cell(U, Vs[i]) for every i
// and for the region lower bound from U to every quadtree cell of Cells, one
// word each (CellWord) — everything a search's expansion of one
// object-hierarchy node needs from the source's cell, in one round trip. One
// cell and no Vs is the plain region lower bound.
type IntervalReq struct {
	Cell  int32
	U     uint32
	V     uint32
	Vs    []uint32
	Cells []uint64
}

// CellWord packs a quadtree cell into one wire word: its Morton code above
// the low 8 bits, its level in them.
func CellWord(c geom.Cell) uint64 { return uint64(c.Code)<<8 | uint64(c.Level) }

// cellFromWord decodes a CellWord, rejecting a level deeper than the grid, a
// code beyond it, and a code that is not the corner of a cell at its level.
func cellFromWord(w uint64) (geom.Cell, error) {
	c := geom.Cell{Code: geom.Code(w >> 8), Level: uint8(w)}
	switch {
	case c.Level > geom.MaxLevel:
		return geom.Cell{}, fmt.Errorf("cell level %d beyond %d", c.Level, geom.MaxLevel)
	case uint64(c.Code) >= geom.Span(0):
		return geom.Cell{}, fmt.Errorf("cell code %#x beyond the grid", uint64(c.Code))
	case uint64(c.Code)%c.Span() != 0:
		return geom.Cell{}, fmt.Errorf("cell code %#x not aligned to level %d", uint64(c.Code), c.Level)
	}
	return c, nil
}

// IntervalResp carries Lo/Hi for the single form; Los/His (one per Vs entry)
// and Lbs (one per cell) for the batch form.
type IntervalResp struct {
	Lo  uint64
	Hi  uint64
	Los []uint64
	His []uint64
	Lbs []uint64
	IO  diskio.Stats
}

// RaceReq asks for one exact route race per destination of Dsts: destination
// i owns the next Ns[i] entries of the flat candidate lists Offs/Us and gets
// min over those j of Offs[j] + d_cell(Us[j], Dsts[i]) (candidates refine in
// lower-bound order with a cutoff). There is one request shape: a single
// race is a batch of one destination, and a sole candidate at offset 0 asks
// for the fully refined d_cell(Us[0], Dsts[0]) — 0 + d == d bit for bit,
// +Inf bits when unreachable inside the cell. A router batches the races a
// search is about to need on one cell; every destination is still raced on
// its own, in order, by the code a request for it alone would run.
type RaceReq struct {
	Cell int32
	Dsts []uint32
	Ns   []int32
	Offs []uint64
	Us   []uint32
}

// RaceResp answers every destination of the request in order.
type RaceResp struct {
	Ds   []uint64
	Args []int32 // winner's index among the destination's own candidates; -1 when all unreachable
	IO   diskio.Stats
}

// PathReq asks for a within-cell shortest path from U to V, in cell-local
// vertex ids.
type PathReq struct {
	Cell int32
	U    uint32
	V    uint32
}

type PathResp struct {
	Verts []uint32
	IO    diskio.Stats
}

// ErrorResp is the JSON body of every non-200 RPC response.
type ErrorResp struct {
	Error string `json:"error"`
}
