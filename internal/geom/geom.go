// Package geom provides the planar geometry primitives used throughout the
// library: points in the unit square, axis-aligned rectangles, and the
// Morton (Z-order) space-filling curve machinery on which shortest-path
// quadtrees are built.
//
// All spatial data is quantized onto a 2^GridBits x 2^GridBits integer grid.
// A Morton code interleaves the bits of the (x, y) cell coordinates so that
// every quadtree cell corresponds to a contiguous range of codes, which lets
// a quadtree be stored as a sorted slice of (code, level) pairs.
package geom

import (
	"fmt"
	"math"
)

// GridBits is the number of bits per axis of the Morton grid. The embedding
// space is the unit square; a cell has side 2^-GridBits.
const GridBits = 16

// GridSize is the number of cells along one axis.
const GridSize = 1 << GridBits

// MaxLevel is the deepest quadtree level; level 0 is the root cell covering
// the whole unit square, level MaxLevel is a single grid cell.
const MaxLevel = GridBits

// Point is a location in the unit square [0,1) x [0,1).
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Cell returns the integer grid cell containing p. Points outside the unit
// square are clamped to the boundary cells.
func (p Point) Cell() (ix, iy uint32) {
	ix = clampCell(p.X)
	iy = clampCell(p.Y)
	return ix, iy
}

// Code returns the Morton code of the grid cell containing p.
func (p Point) Code() Code {
	ix, iy := p.Cell()
	return Encode(ix, iy)
}

func clampCell(v float64) uint32 {
	c := int64(v * GridSize)
	if c < 0 {
		c = 0
	}
	if c >= GridSize {
		c = GridSize - 1
	}
	return uint32(c)
}

// Rect is a closed axis-aligned rectangle.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// MinDist returns the minimum Euclidean distance from p to any point of r
// (zero if p is inside r).
func (r Rect) MinDist(p Point) float64 {
	dx := axisDist(p.X, r.MinX, r.MaxX)
	dy := axisDist(p.Y, r.MinY, r.MaxY)
	return math.Sqrt(dx*dx + dy*dy)
}

// MaxDist returns the maximum Euclidean distance from p to any point of r.
func (r Rect) MaxDist(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := math.Max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return math.Sqrt(dx*dx + dy*dy)
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// Code is a Morton (Z-order) code: the interleaved bits of a grid cell's
// (x, y) coordinates, y bits in the odd positions. Codes occupy the low
// 2*GridBits bits.
type Code uint64

// Encode interleaves the low GridBits bits of x and y into a Morton code.
func Encode(x, y uint32) Code {
	return Code(spread(x) | spread(y)<<1)
}

// Decode splits a Morton code back into grid coordinates.
func (c Code) Decode() (x, y uint32) {
	return compact(uint64(c)), compact(uint64(c) >> 1)
}

// spread inserts a zero bit between each of the low 16 bits of v.
func spread(v uint32) uint64 {
	x := uint64(v) & 0xffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact removes the zero bits inserted by spread.
func compact(v uint64) uint32 {
	x := v & 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// Cell identifies one quadtree cell: a Morton-code prefix. Code holds the
// code of the cell's minimum corner; Level is the quadtree depth (0 = root).
// The cell covers codes [Code, Code + Span(Level)).
type Cell struct {
	Code  Code
	Level uint8
}

// RootCell covers the entire grid.
func RootCell() Cell { return Cell{Code: 0, Level: 0} }

// Span returns the number of Morton codes covered by a cell at the given
// level.
func Span(level uint8) uint64 {
	return 1 << (2 * (MaxLevel - uint(level)))
}

// Span returns the number of Morton codes covered by c.
func (c Cell) Span() uint64 { return Span(c.Level) }

// End returns the first code after the cell's range.
func (c Cell) End() Code { return c.Code + Code(c.Span()) }

// ContainsCode reports whether code lies inside c's code range.
func (c Cell) ContainsCode(code Code) bool {
	return code >= c.Code && code < c.End()
}

// Child returns the i-th (0..3, Morton order) child of c.
func (c Cell) Child(i int) Cell {
	if c.Level >= MaxLevel {
		panic("geom: Child on a leaf-level cell")
	}
	child := Cell{Level: c.Level + 1}
	child.Code = c.Code + Code(uint64(i))*Code(child.Span())
	return child
}

// Rect returns the cell's rectangle in unit-square coordinates.
func (c Cell) Rect() Rect {
	x, y := c.Code.Decode()
	side := 1.0 / float64(uint64(1)<<c.Level)
	fx := float64(x) / GridSize
	fy := float64(y) / GridSize
	return Rect{MinX: fx, MinY: fy, MaxX: fx + side, MaxY: fy + side}
}

// String renders a cell as "level:code" for diagnostics.
func (c Cell) String() string {
	return fmt.Sprintf("L%d:%x", c.Level, uint64(c.Code))
}
