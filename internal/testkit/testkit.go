// Package testkit holds the oracles and generators that tests of several
// packages share: edge lists, Floyd–Warshall all-pairs distances, path
// weights, first-hop colors, random non-planar networks and the series
// shapes of a metrics exposition. Only test files import it; the root test
// TestInternalExportsHaveCallers enforces that.
package testkit

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"silc/internal/geom"
	"silc/internal/graph"
)

// Edges lists every directed edge of g, in vertex then adjacency order.
func Edges(g *graph.Network) []graph.Edge {
	out := make([]graph.Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		targets, weights := g.Neighbors(graph.VertexID(v))
		for i := range targets {
			out = append(out, graph.Edge{From: graph.VertexID(v), To: targets[i], Weight: weights[i]})
		}
	}
	return out
}

// FloydWarshall computes the all-pairs distance matrix, +Inf where no path
// exists. It is the test oracle for small networks; O(n^3) time and O(n^2)
// space.
func FloydWarshall(g *graph.Network) [][]float64 {
	n := g.NumVertices()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, e := range Edges(g) {
		if e.Weight < d[e.From][e.To] {
			d[e.From][e.To] = e.Weight
		}
	}
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			di := d[i]
			for j := 0; j < n; j++ {
				if nd := dik + dk[j]; nd < di[j] {
					di[j] = nd
				}
			}
		}
	}
	return d
}

// PathWeight sums the edge weights along a vertex path, returning +Inf if
// any hop is not an edge of g or the path is empty. Used to validate
// reconstructed paths.
func PathWeight(g *graph.Network, path []graph.VertexID) float64 {
	if len(path) == 0 {
		return math.Inf(1)
	}
	total := 0.0
	for i := 1; i < len(path); i++ {
		w, ok := g.EdgeWeight(path[i-1], path[i])
		if !ok {
			return math.Inf(1)
		}
		total += w
	}
	return total
}

// NeighborIndex returns the index of w within v's adjacency list, or -1.
// The index serves as the "color" of a first hop in shortest-path maps.
// Among parallel edges the minimum-weight one is returned — the edge any
// shortest path actually uses.
func NeighborIndex(g *graph.Network, v, w graph.VertexID) int {
	targets, weights := g.Neighbors(v)
	best := -1
	for i, t := range targets {
		if t == w && (best < 0 || weights[i] < weights[best]) {
			best = i
		}
	}
	return best
}

// GenerateRandomConnected builds a connected (non-planar) network of n
// random points: a random spanning chain plus extra random edges. Weights
// are Euclidean length times Uniform[1, 1+noise]. Property tests use it to
// exercise SILC on topologies the road generator's lattice never produces.
func GenerateRandomConnected(n, extraEdges int, noise float64, seed int64) (*graph.Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("testkit: need >= 2 vertices, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	pts := make([]geom.Point, n)
	used := make(map[geom.Code]bool, n)
	for i := range pts {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		pts[i] = resolveCell(p, used, rng)
		b.AddVertex(pts[i])
	}
	perm := rng.Perm(n)
	w := func(u, v graph.VertexID) float64 {
		return pts[u].Dist(pts[v]) * (1 + noise*rng.Float64())
	}
	for i := 1; i < n; i++ {
		u, v := graph.VertexID(perm[i-1]), graph.VertexID(perm[i])
		b.AddBiEdge(u, v, w(u, v))
	}
	for e := 0; e < extraEdges; e++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddBiEdge(u, v, w(u, v))
	}
	return b.Build()
}

// resolveCell nudges p until it occupies an unused Morton grid cell and
// marks that cell used. It draws from rng exactly as the road generator's
// collision resolution does, so a seed keeps naming the same network.
func resolveCell(p geom.Point, used map[geom.Code]bool, rng *rand.Rand) geom.Point {
	const step = 1.5 / geom.GridSize
	for tries := 0; ; tries++ {
		code := p.Code()
		if !used[code] {
			used[code] = true
			return p
		}
		p.X = clamp01(p.X + step*(rng.Float64()-0.5)*4)
		p.Y = clamp01(p.Y + step*(rng.Float64()-0.5)*4)
		if tries > 1000 {
			panic("testkit: could not resolve Morton cell collision")
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

// MetricNames returns the distinct series shapes of a Prometheus text
// exposition, sorted: each sample's metric name followed by its label
// keys in braces (name{k1,k2}; bare name when it has none). Values and
// label values are dropped, so a golden list of shapes pins which
// families exist and how they are labelled, not what they read.
func MetricNames(exposition string) []string {
	seen := map[string]bool{}
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, labelled := strings.Cut(line, "{")
		if !labelled {
			name, _, _ = strings.Cut(line, " ")
			seen[name] = true
			continue
		}
		var keys []string
		for rest != "" && rest[0] != '}' {
			key, after, _ := strings.Cut(rest, `="`)
			keys = append(keys, key)
			// Skip the quoted value: up to the first unescaped quote.
			i := 0
			for i < len(after) && after[i] != '"' {
				if after[i] == '\\' {
					i++
				}
				i++
			}
			rest = strings.TrimPrefix(after[min(i+1, len(after)):], ",")
		}
		seen[name+"{"+strings.Join(keys, ",")+"}"] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
