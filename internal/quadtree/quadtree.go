// Package quadtree builds and queries shortest-path quadtrees, the storage
// representation at the heart of the SILC framework (paper §3).
//
// For a source vertex u, every other vertex v is colored by the index of the
// first edge on the shortest path u→v. Path coherence on spatial networks
// makes same-colored vertices spatially contiguous, so the colored vertex
// set compresses into a region quadtree: a set of disjoint Morton blocks,
// each single-colored, covering every vertex. Each block additionally keeps
// the minimum and maximum over its vertices of the ratio network-distance /
// Euclidean-distance (λ⁻, λ⁺), which turns a block lookup into a distance
// interval without touching the graph.
package quadtree

import (
	"math"

	"silc/internal/geom"
)

// NoColor marks the source vertex position, which belongs to no block.
// It acts as a wildcard: the source joins any neighboring block.
const NoColor int32 = -1

// OutOfRange marks vertices the source cannot reach, which only a lenient
// (AllowUnreachable) build admits: a partition cell's induced subnetwork
// need not be strongly connected. Unlike NoColor it is NOT a wildcard —
// blocks split until unreachable vertices are excluded, so lookups of them
// miss instead of returning a wrong color.
const OutOfRange int32 = -2

// Block is one Morton block of a shortest-path quadtree. It asserts: every
// network vertex whose Morton code falls inside Cell has first-hop Color,
// and its network distance d from the source satisfies
// LamLo*euclid <= d <= LamHi*euclid.
type Block struct {
	Cell  geom.Cell
	Color int32
	LamLo float32
	LamHi float32
}

// EncodedSizeBytes is the size of one block in the paged disk layout:
// 4-byte truncated Morton code + 1-byte level + 3-byte color + two 4-byte
// ratio bounds. Used for storage accounting and I/O page mapping.
const EncodedSizeBytes = 16

// Tree is a shortest-path quadtree: blocks sorted by Morton code, disjoint,
// jointly covering every vertex of the network except the source.
type Tree struct {
	Blocks []Block
	// MinLambda is the smallest LamLo across blocks; it lets region queries
	// prune on Euclidean distance alone. At least 1 whenever edge weights
	// dominate Euclidean segment lengths.
	MinLambda float64
	// codes mirrors Blocks[i].Cell.Code in a packed side array. The lookup
	// binary search probes it instead of the 32-byte Block structs: eight
	// codes share a cache line where two blocks do, so the tail of the
	// search — the probes that are never prefetchable — stays in one or two
	// lines. Built by Seal; lookups fall back to Blocks when absent.
	codes []geom.Code
}

// Seal builds the packed code side array after Blocks reaches its final
// state. Construction sites call it once; concurrent readers require it to
// happen before the tree is shared (Seal is not synchronized).
func (t *Tree) Seal() {
	if cap(t.codes) < len(t.Blocks) {
		t.codes = make([]geom.Code, len(t.Blocks))
	} else {
		t.codes = t.codes[:len(t.Blocks)]
	}
	for i := range t.Blocks {
		t.codes[i] = t.Blocks[i].Cell.Code
	}
}

// NumBlocks returns the Morton block count (the paper's storage unit).
func (t *Tree) NumBlocks() int { return len(t.Blocks) }

// FindIndex returns the index of the block containing the given Morton
// code. ok is false when the code lies in uncovered (vertex-free or source)
// territory. The binary search is hand-rolled: this is
// the single hottest call of the query path (one per interval lookup), and
// the sort.Search closure costs more than the comparisons themselves.
func (t *Tree) FindIndex(code geom.Code) (int, bool) {
	// Invariant: blocks are sorted by Cell.Code; find the last block whose
	// code is <= the probe, i.e. lower_bound on (Code > code) minus one.
	if codes := t.codes; len(codes) == len(t.Blocks) && len(codes) > 0 {
		lo, hi := 0, len(codes)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if codes[mid] > code {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo == 0 || !t.Blocks[lo-1].Cell.ContainsCode(code) {
			return -1, false
		}
		return lo - 1, true
	}
	lo, hi := 0, len(t.Blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.Blocks[mid].Cell.Code > code {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 || !t.Blocks[lo-1].Cell.ContainsCode(code) {
		return -1, false
	}
	return lo - 1, true
}

// CellLowerBound returns a lower bound on the network distance from the
// query point q to any vertex whose Morton code lies in cell. Blocks and
// cells are both Morton cells, so a block either covers cell, lies inside
// it, or is disjoint from it: the bound is LamLo × minEuclid(q, cell) for a
// covering block, else the minimum over the blocks inside cell — one
// contiguous code range — of LamLo(b) × minEuclid(q, b). Vertex-free area
// contributes nothing (there is no vertex there to be near). Returns +Inf
// when cell holds no block.
func (t *Tree) CellLowerBound(q geom.Point, cell geom.Cell) float64 {
	n := len(t.Blocks)
	lo := t.lowerBound(0, n, cell.Code)
	// An aligned block that starts before cell.Code and contains it is
	// larger than cell; one that starts at it covers cell unless it is deeper.
	if lo > 0 && t.Blocks[lo-1].Cell.ContainsCode(cell.Code) {
		return float64(t.Blocks[lo-1].LamLo) * cell.Rect().MinDist(q)
	}
	if lo < n && t.Blocks[lo].Cell.Code == cell.Code && t.Blocks[lo].Cell.Level <= cell.Level {
		return float64(t.Blocks[lo].LamLo) * cell.Rect().MinDist(q)
	}
	best := math.Inf(1)
	t.cellVisit(cell, cell.Rect(), lo, t.lowerBound(lo, n, cell.End()), q, &best)
	return best
}

// cellVisit descends the implicit quadtree over the block range [lo, hi),
// every block of which lies inside cell. cellRect is cell's rectangle,
// threaded down the recursion (child rects are quadrant midpoint splits,
// exact in float64) so no level re-derives it from the Morton code.
func (t *Tree) cellVisit(cell geom.Cell, cellRect geom.Rect, lo, hi int, q geom.Point, best *float64) {
	if lo == hi {
		return
	}
	// Prune: nothing in this cell can beat the current best. MinLambda
	// scales the Euclidean bound into a valid network-distance bound.
	d := cellRect.MinDist(q)
	if d*t.MinLambda >= *best {
		return
	}
	if b := t.Blocks[lo]; b.Cell == cell {
		// A single block fills the whole cell: leaf contribution.
		if d *= float64(b.LamLo); d < *best {
			*best = d
		}
		return
	}
	// Descend: partition the block range among the four children. Child i's
	// Morton bits are (y<<1)|x, so bit 0 selects the x half, bit 1 the y
	// half of the midpoint split.
	midX := (cellRect.MinX + cellRect.MaxX) / 2
	midY := (cellRect.MinY + cellRect.MaxY) / 2
	at := lo
	for i := 0; i < 4; i++ {
		child := cell.Child(i)
		sub := t.lowerBound(at, hi, child.End())
		childRect := cellRect
		if i&1 == 0 {
			childRect.MaxX = midX
		} else {
			childRect.MinX = midX
		}
		if i&2 == 0 {
			childRect.MaxY = midY
		} else {
			childRect.MinY = midY
		}
		t.cellVisit(child, childRect, at, sub, q, best)
		at = sub
	}
}

// lowerBound returns the first index in [lo, hi) whose block code is >= end,
// probing the packed code array when sealed.
func (t *Tree) lowerBound(lo, hi int, end geom.Code) int {
	if len(t.codes) == len(t.Blocks) {
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t.codes[mid] >= end {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.Blocks[mid].Cell.Code >= end {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Builder constructs shortest-path quadtrees over a fixed Morton-sorted
// vertex layout. One Builder serves every source vertex of a network; it is
// not safe for concurrent use (each parallel build worker owns one).
type Builder struct {
	codes []geom.Code // vertex Morton codes in ascending order
}

// NewBuilder returns a Builder over the given ascending Morton codes
// (typically Network.MortonOrder mapped through Network.Code).
func NewBuilder(codes []geom.Code) *Builder {
	for i := 1; i < len(codes); i++ {
		if codes[i-1] >= codes[i] {
			panic("quadtree: codes not strictly ascending")
		}
	}
	return &Builder{codes: codes}
}

// Build constructs the shortest-path quadtree for one source vertex.
//
// colors[i] is the first-hop color of the vertex at Morton rank i and
// ratios[i] its network/Euclidean distance ratio; the source's own rank
// carries NoColor and is treated as a wildcard (it joins any block and
// contributes no ratio). Build panics if decomposition cannot separate two
// differently-colored vertices (impossible when vertex cells are distinct,
// which graph.Builder enforces).
func (b *Builder) Build(colors []int32, ratios []float64) *Tree {
	if len(colors) != len(b.codes) || len(ratios) != len(b.codes) {
		panic("quadtree: input length mismatch")
	}
	t := &Tree{MinLambda: math.Inf(1)}
	b.buildRange(geom.RootCell(), 0, len(b.codes), colors, ratios, t)
	if len(t.Blocks) == 0 {
		t.MinLambda = 1
	}
	t.Seal()
	return t
}

func (b *Builder) buildRange(cell geom.Cell, lo, hi int, colors []int32, ratios []float64, t *Tree) {
	if lo == hi {
		return
	}
	// Homogeneity scan with wildcard source.
	color := NoColor
	uniform := true
	for i := lo; i < hi; i++ {
		c := colors[i]
		if c == NoColor {
			continue
		}
		if color == NoColor {
			color = c
		} else if c != color {
			uniform = false
			break
		}
	}
	if uniform {
		if color < 0 {
			return // only the source and/or out-of-range vertices: no block
		}
		// Round outward so float32 bounds still contain every ratio. Both
		// roundings are monotone, so rounding the smallest and largest
		// ratio once gives the bounds that rounding each ratio would.
		minR, maxR := math.Inf(1), math.Inf(-1)
		for i := lo; i < hi; i++ {
			if colors[i] == NoColor {
				continue
			}
			r := ratios[i]
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
		}
		lamLo, lamHi := nextDown32(minR), nextUp32(maxR)
		t.Blocks = append(t.Blocks, Block{Cell: cell, Color: color, LamLo: lamLo, LamHi: lamHi})
		if float64(lamLo) < t.MinLambda {
			t.MinLambda = float64(lamLo)
		}
		return
	}
	if cell.Level >= geom.MaxLevel {
		panic("quadtree: two differently-colored vertices share a grid cell")
	}
	at := lo
	for i := 0; i < 4; i++ {
		child := cell.Child(i)
		end := child.End()
		sub, top := at, hi // first index in [at, hi) whose code is >= end
		for sub < top {
			mid := int(uint(sub+top) >> 1)
			if b.codes[mid] >= end {
				top = mid
			} else {
				sub = mid + 1
			}
		}
		b.buildRange(child, at, sub, colors, ratios, t)
		at = sub
	}
}

// nextDown32 converts v to float32 and steps one ULP down, guaranteeing the
// result does not exceed v even after reconstruction rounding. For a
// positive finite float32 the step is one less in the bit pattern; every
// other value takes math.Nextafter32.
func nextDown32(v float64) float32 {
	f := float32(v)
	if f > 0 && f <= math.MaxFloat32 {
		return math.Float32frombits(math.Float32bits(f) - 1)
	}
	return math.Nextafter32(f, float32(math.Inf(-1)))
}

// nextUp32 converts v to float32 and steps one ULP up, the float32 image of
// nextDown32.
func nextUp32(v float64) float32 {
	f := float32(v)
	if f > 0 && f <= math.MaxFloat32 {
		return math.Float32frombits(math.Float32bits(f) + 1)
	}
	return math.Nextafter32(f, float32(math.Inf(1)))
}
