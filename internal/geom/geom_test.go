package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(x, y uint32) bool {
		x &= GridSize - 1
		y &= GridSize - 1
		gx, gy := Encode(x, y).Decode()
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMonotoneInQuadrants(t *testing.T) {
	// The four children of the root must partition the code space in
	// Morton order: (0,0), (1,0), (0,1), (1,1) quadrants.
	half := uint32(GridSize / 2)
	quadrants := [][2]uint32{{0, 0}, {half, 0}, {0, half}, {half, half}}
	root := RootCell()
	for i, q := range quadrants {
		child := root.Child(i)
		code := Encode(q[0], q[1])
		if code != child.Code {
			t.Errorf("quadrant %d: Encode(%d,%d)=%x, want child code %x",
				i, q[0], q[1], uint64(code), uint64(child.Code))
		}
	}
}

func TestCellContainsOwnPoints(t *testing.T) {
	f := func(x, y uint32, level uint8) bool {
		x &= GridSize - 1
		y &= GridSize - 1
		level %= MaxLevel + 1
		code := Encode(x, y)
		// The ancestor cell of `code` at `level` is obtained by masking
		// off the low bits.
		span := Span(level)
		cell := Cell{Code: code &^ Code(span-1), Level: level}
		return cell.ContainsCode(code) && inRect(cell.Rect(), Point{
			X: (float64(x) + 0.5) / GridSize,
			Y: (float64(y) + 0.5) / GridSize,
		})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChildrenPartitionParent(t *testing.T) {
	cell := Cell{Code: Encode(1234, 5678) &^ Code(Span(5)-1), Level: 5}
	var total uint64
	prevEnd := cell.Code
	for i := 0; i < 4; i++ {
		ch := cell.Child(i)
		if ch.Code != prevEnd {
			t.Fatalf("child %d starts at %x, want %x", i, uint64(ch.Code), uint64(prevEnd))
		}
		prevEnd = ch.End()
		total += ch.Span()
	}
	if total != cell.Span() {
		t.Fatalf("children cover %d codes, parent covers %d", total, cell.Span())
	}
	if prevEnd != cell.End() {
		t.Fatalf("children end at %x, parent ends at %x", uint64(prevEnd), uint64(cell.End()))
	}
}

func TestChildRects(t *testing.T) {
	parent := RootCell()
	pr := parent.Rect()
	area := 0.0
	for i := 0; i < 4; i++ {
		cr := parent.Child(i).Rect()
		if cr.MinX < pr.MinX || cr.MaxX > pr.MaxX || cr.MinY < pr.MinY || cr.MaxY > pr.MaxY {
			t.Fatalf("child %d rect %v outside parent %v", i, cr, pr)
		}
		area += (cr.MaxX - cr.MinX) * (cr.MaxY - cr.MinY)
	}
	if math.Abs(area-1.0) > 1e-12 {
		t.Fatalf("child rects cover area %v, want 1.0", area)
	}
}

func TestPointCodeMatchesCellRect(t *testing.T) {
	f := func(xf, yf float64) bool {
		p := Point{X: frac(xf), Y: frac(yf)}
		code := p.Code()
		leaf := Cell{Code: code, Level: MaxLevel}
		return inRect(leaf.Rect(), p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// inRect reports whether p lies inside r, boundary inclusive.
func inRect(r Rect, p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

func frac(v float64) float64 {
	v = math.Abs(v)
	v -= math.Floor(v)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return v
}

func TestRectMinMaxDist(t *testing.T) {
	r := Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.4}
	cases := []struct {
		p        Point
		min, max float64
	}{
		{Point{0.3, 0.3}, 0, math.Hypot(0.1, 0.1)},                    // inside
		{Point{0.0, 0.3}, 0.2, math.Hypot(0.4, 0.1)},                  // left of
		{Point{0.5, 0.5}, math.Hypot(0.1, 0.1), math.Hypot(0.3, 0.3)}, // above right
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.min) > 1e-12 {
			t.Errorf("MinDist(%v)=%v want %v", c.p, got, c.min)
		}
		if got := r.MaxDist(c.p); math.Abs(got-c.max) > 1e-12 {
			t.Errorf("MaxDist(%v)=%v want %v", c.p, got, c.max)
		}
	}
}

func TestRectMinDistLowerBoundsPointDist(t *testing.T) {
	// Property: for any point q of the rect, MinDist(p) <= p.Dist(q) <= MaxDist(p).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		r := randRect(rng)
		p := Point{rng.Float64() * 2, rng.Float64() * 2}
		q := Point{
			X: r.MinX + rng.Float64()*(r.MaxX-r.MinX),
			Y: r.MinY + rng.Float64()*(r.MaxY-r.MinY),
		}
		d := p.Dist(q)
		if lo := r.MinDist(p); lo > d+1e-12 {
			t.Fatalf("MinDist %v > dist %v (p=%v q=%v r=%v)", lo, d, p, q, r)
		}
		if hi := r.MaxDist(p); hi < d-1e-12 {
			t.Fatalf("MaxDist %v < dist %v (p=%v q=%v r=%v)", hi, d, p, q, r)
		}
	}
}

func randRect(rng *rand.Rand) Rect {
	x1, x2 := rng.Float64(), rng.Float64()
	y1, y2 := rng.Float64(), rng.Float64()
	return Rect{
		MinX: math.Min(x1, x2), MaxX: math.Max(x1, x2),
		MinY: math.Min(y1, y2), MaxY: math.Max(y1, y2),
	}
}

func TestClampCell(t *testing.T) {
	for _, p := range []Point{{-1, -1}, {2, 2}, {1.0, 1.0}} {
		ix, iy := p.Cell()
		if ix >= GridSize || iy >= GridSize {
			t.Fatalf("cell out of range: %d,%d", ix, iy)
		}
	}
}

func TestSpan(t *testing.T) {
	if got := Span(MaxLevel); got != 1 {
		t.Fatalf("Span(MaxLevel)=%d want 1", got)
	}
	if got := Span(0); got != uint64(GridSize)*uint64(GridSize) {
		t.Fatalf("Span(0)=%d want %d", got, uint64(GridSize)*uint64(GridSize))
	}
}
