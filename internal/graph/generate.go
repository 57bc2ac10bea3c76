package graph

import (
	"fmt"
	"math"
	"math/rand"

	"silc/internal/geom"
)

// RoadNetworkOptions parameterizes the synthetic road-network generator that
// stands in for the paper's US eastern-seaboard extract (see DESIGN.md §5).
// The generator produces a perturbed lattice with holes, dropped segments,
// occasional diagonal shortcuts, and edge weights equal to Euclidean length
// scaled by a uniform noise factor >= 1. The result is near-planar with
// network distance bounded below by Euclidean distance — the two properties
// the paper's storage and query results rest on.
type RoadNetworkOptions struct {
	// Rows and Cols set the lattice dimensions; the network has at most
	// Rows*Cols vertices before deletions and component extraction.
	Rows, Cols int
	// Jitter is the vertex displacement as a fraction of lattice spacing
	// (0..0.49). Default 0.35.
	Jitter float64
	// DeleteProb removes lattice vertices to create holes. Default 0.08.
	DeleteProb float64
	// EdgeDropProb removes individual road segments. Default 0.05.
	EdgeDropProb float64
	// DiagonalProb adds a diagonal shortcut at a lattice cell. Default 0.05.
	DiagonalProb float64
	// WeightNoise rho makes weight = euclid * Uniform[1, 1+rho]. Default 0.3.
	WeightNoise float64
	// Seed drives all randomness; the generator is deterministic per seed.
	Seed int64
}

func (o *RoadNetworkOptions) setDefaults() {
	if o.Rows == 0 {
		o.Rows = 64
	}
	if o.Cols == 0 {
		o.Cols = 64
	}
	if o.Jitter == 0 {
		o.Jitter = 0.35
	}
	if o.DeleteProb == 0 {
		o.DeleteProb = 0.08
	}
	if o.EdgeDropProb == 0 {
		o.EdgeDropProb = 0.05
	}
	if o.DiagonalProb == 0 {
		o.DiagonalProb = 0.05
	}
	if o.WeightNoise == 0 {
		o.WeightNoise = 0.3
	}
}

// GenerateRoadNetwork builds a synthetic road network per opts, restricted to
// its largest connected component.
func GenerateRoadNetwork(opts RoadNetworkOptions) (*Network, error) {
	opts.setDefaults()
	if opts.Rows < 2 || opts.Cols < 2 {
		return nil, fmt.Errorf("graph: lattice %dx%d too small", opts.Rows, opts.Cols)
	}
	if opts.Jitter < 0 || opts.Jitter > 0.49 {
		return nil, fmt.Errorf("graph: jitter %v out of range [0, 0.49]", opts.Jitter)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	rows, cols := opts.Rows, opts.Cols
	// Lattice spacing leaves a small margin so jittered points stay inside
	// the unit square.
	sx := 1.0 / float64(cols+1)
	sy := 1.0 / float64(rows+1)

	b := NewBuilder()
	ids := make([]VertexID, rows*cols)
	used := make(map[geom.Code]bool, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if rng.Float64() < opts.DeleteProb {
				ids[i] = NoVertex
				continue
			}
			p := geom.Point{
				X: sx * (float64(c) + 1 + opts.Jitter*(2*rng.Float64()-1)),
				Y: sy * (float64(r) + 1 + opts.Jitter*(2*rng.Float64()-1)),
			}
			p = resolveCell(p, used, rng)
			ids[i] = b.AddVertex(p)
		}
	}

	addRoad := func(u, v VertexID) {
		if u == NoVertex || v == NoVertex {
			return
		}
		if rng.Float64() < opts.EdgeDropProb {
			return
		}
		d := b.pts[u].Dist(b.pts[v])
		w := d * (1 + opts.WeightNoise*rng.Float64())
		b.AddBiEdge(u, v, w)
	}

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if c+1 < cols {
				addRoad(ids[i], ids[i+1])
			}
			if r+1 < rows {
				addRoad(ids[i], ids[i+cols])
			}
			if r+1 < rows && c+1 < cols && rng.Float64() < opts.DiagonalProb {
				if rng.Intn(2) == 0 {
					addRoad(ids[i], ids[i+cols+1])
				} else {
					addRoad(ids[i+1], ids[i+cols])
				}
			}
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	sub, _, err := LargestComponent(g)
	return sub, err
}

// resolveCell nudges p until it occupies an unused Morton grid cell and
// records the cell. Collisions are rare (2^32 cells); the nudge walks in a
// random direction one cell at a time.
func resolveCell(p geom.Point, used map[geom.Code]bool, rng *rand.Rand) geom.Point {
	const step = 1.5 / geom.GridSize
	for tries := 0; ; tries++ {
		code := p.Code()
		if !used[code] {
			used[code] = true
			return p
		}
		p.X += step * (rng.Float64() - 0.5) * 4
		p.Y += step * (rng.Float64() - 0.5) * 4
		p.X = clamp01(p.X)
		p.Y = clamp01(p.Y)
		if tries > 1000 {
			panic("graph: could not resolve Morton cell collision")
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}

// GenerateGrid builds a clean rows x cols lattice with unit-spacing weights
// and no randomness. Useful for tests where distances are predictable.
func GenerateGrid(rows, cols int) (*Network, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: grid %dx%d too small", rows, cols)
	}
	sx := 1.0 / float64(cols+1)
	sy := 1.0 / float64(rows+1)
	b := NewBuilder()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddVertex(geom.Point{X: sx * float64(c+1), Y: sy * float64(r+1)})
		}
	}
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddBiEdge(id(r, c), id(r, c+1), b.pts[id(r, c)].Dist(b.pts[id(r, c+1)]))
			}
			if r+1 < rows {
				b.AddBiEdge(id(r, c), id(r+1, c), b.pts[id(r, c)].Dist(b.pts[id(r+1, c)]))
			}
		}
	}
	return b.Build()
}

// GenerateRingRadial builds a "town" network: concentric ring roads crossed
// by radial avenues, all meeting at a central plaza vertex. Used by the
// examples; exercises non-lattice topology.
func GenerateRingRadial(rings, spokes int, seed int64) (*Network, error) {
	if rings < 1 || spokes < 3 {
		return nil, fmt.Errorf("graph: need >=1 ring and >=3 spokes, got %d/%d", rings, spokes)
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	center := b.AddVertex(geom.Point{X: 0.5, Y: 0.5})
	noise := func() float64 { return 1 + 0.2*rng.Float64() }

	ids := make([][]VertexID, rings)
	maxR := 0.45
	for r := 0; r < rings; r++ {
		radius := maxR * float64(r+1) / float64(rings)
		ids[r] = make([]VertexID, spokes)
		for s := 0; s < spokes; s++ {
			ang := 2 * math.Pi * (float64(s) + 0.15*rng.Float64()) / float64(spokes)
			p := geom.Point{X: 0.5 + radius*math.Cos(ang), Y: 0.5 + radius*math.Sin(ang)}
			ids[r][s] = b.AddVertex(p)
		}
	}
	for r := 0; r < rings; r++ {
		for s := 0; s < spokes; s++ {
			next := ids[r][(s+1)%spokes]
			b.AddBiEdge(ids[r][s], next, b.pts[ids[r][s]].Dist(b.pts[next])*noise())
			if r == 0 {
				b.AddBiEdge(center, ids[r][s], b.pts[center].Dist(b.pts[ids[r][s]])*noise())
			} else {
				b.AddBiEdge(ids[r-1][s], ids[r][s], b.pts[ids[r-1][s]].Dist(b.pts[ids[r][s]])*noise())
			}
		}
	}
	return b.Build()
}
