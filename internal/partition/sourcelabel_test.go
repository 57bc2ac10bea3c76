package partition

import (
	"math"
	"math/rand"
	"testing"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
)

// oneWayNetwork is an 8×8 lattice whose two directions of every street cost
// different amounts, plus one-way-only diagonal shortcuts: directed distances
// differ from their reverses, and some arcs have no reverse at all.
func oneWayNetwork(t *testing.T) *graph.Network {
	t.Helper()
	const n = 8
	b := graph.NewBuilder()
	at := func(r, c int) graph.VertexID { return graph.VertexID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b.AddVertex(geom.Point{X: (float64(c) + 0.5) / n, Y: (float64(r) + 0.5) / n})
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				b.AddEdge(at(r, c), at(r, c+1), 1.0/n)
				b.AddEdge(at(r, c+1), at(r, c), 1.7/n)
			}
			if r+1 < n {
				b.AddEdge(at(r, c), at(r+1, c), 1.3/n)
				b.AddEdge(at(r+1, c), at(r, c), 1.0/n)
			}
			if r+1 < n && c+1 < n && (r+c)%3 == 0 {
				b.AddEdge(at(r+1, c+1), at(r, c), 1.1/n) // no way back along it
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// splitCellNetwork is two parallel streets joined at their east end only:
//
//	a1 — a2 — c1 — c2
//	                |
//	b1 — b2 — c3 — c4
//
// A 2-way kd-cut puts {a1, a2, b1, b2} in one cell, whose own edges do not
// connect the a street with the b street: from a1 the gateway b2 is
// unreachable inside the cell, and reachable only through the other one.
func splitCellNetwork(t *testing.T) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	var a, lo [4]graph.VertexID
	for i := 0; i < 4; i++ {
		a[i] = b.AddVertex(geom.Point{X: 0.1 + 0.2*float64(i), Y: 0.8})
		lo[i] = b.AddVertex(geom.Point{X: 0.1 + 0.2*float64(i), Y: 0.2})
	}
	for i := 0; i+1 < 4; i++ {
		b.AddBiEdge(a[i], a[i+1], 0.2)
		b.AddBiEdge(lo[i], lo[i+1], 0.2)
	}
	b.AddBiEdge(a[3], lo[3], 0.6)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSourceLabelMatchesCellSweep: the bounded search behind router.ensureDU
// gives, for every source, the distances a full cellExact refinement toward
// each gateway of the source's cell gives — to 1e-12 relative (equal-length
// paths may sum in a different order), +Inf exactly where the cell index says
// unreachable, and an exact 0 for a source that is itself a gateway.
func TestSourceLabelMatchesCellSweep(t *testing.T) {
	nets := testNetworks(t)
	nets["oneway8x8"] = oneWayNetwork(t)
	nets["splitcell"] = splitCellNetwork(t)
	for name, g := range nets {
		for _, p := range []int{1, 2, 4} {
			s, err := Build(g, Options{Partitions: p})
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			gatewaySources, unreachable := 0, 0
			qc := core.NewQueryContext()
			for v := 0; v < g.NumVertices(); v++ {
				src := graph.VertexID(v)
				rt := s.routerFor(qc, src)
				rt.ensureDU()
				c := s.asn.CellOf[src]
				lo, hi := s.cl.Rows(c)
				if len(rt.du) != int(hi-lo) {
					t.Fatalf("%s P=%d src %d: %d label entries for %d gateways", name, p, src, len(rt.du), hi-lo)
				}
				for r := lo; r < hi; r++ {
					got := rt.du[r-lo]
					want := cellExact(s.cells[c].ix, qc, graph.VertexID(s.asn.LocalOf[src]), graph.VertexID(s.asn.LocalOf[s.cl.B[r]]))
					switch {
					case math.IsInf(want, 1) || math.IsInf(got, 1):
						if got != want {
							t.Fatalf("%s P=%d: du(%d→%d) = %v, cell sweep %v", name, p, src, s.cl.B[r], got, want)
						}
						unreachable++
					case math.Abs(got-want) > 1e-12*want:
						t.Fatalf("%s P=%d: du(%d→%d) = %v, cell sweep %v", name, p, src, s.cl.B[r], got, want)
					}
					if s.cl.B[r] == src {
						gatewaySources++
						if got != 0 {
							t.Fatalf("%s P=%d: gateway %d is %v from itself", name, p, src, got)
						}
					}
				}
			}
			if p == 1 && s.cl.NB() != 0 {
				t.Fatalf("%s: a single cell has %d gateways", name, s.cl.NB())
			}
			if p > 1 && gatewaySources != s.cl.NB() {
				t.Fatalf("%s P=%d: %d of %d gateways seen as sources", name, p, gatewaySources, s.cl.NB())
			}
			if name == "splitcell" && p == 2 && unreachable == 0 {
				t.Fatalf("splitcell P=2: every gateway reachable inside its cell; the fixture no longer splits one")
			}
		}
	}
}

// TestSourceLabelWarmAllocs: once a context's router has seen its largest
// cell, a new source's label — search state, frontier and all — allocates
// nothing.
func TestSourceLabelWarmAllocs(t *testing.T) {
	g, s := buildTestSharded(t, 14, 14, 4, 7, false)
	qc := core.NewQueryContext()
	n := g.NumVertices()
	for v := 0; v < n; v++ { // warm: every cell's sizes seen
		s.routerFor(qc, graph.VertexID(v)).ensureDU()
	}
	v := 0
	if got := testing.AllocsPerRun(100, func() {
		v = (v + 37) % n
		s.routerFor(qc, graph.VertexID(v)).ensureDU()
	}); got != 0 {
		t.Fatalf("a warm source label allocates %.1f times", got)
	}
}

// benchMap is the benchmark's map: a 64×64 road network (seed 1) in four
// cells.
func benchMap(b *testing.B) (*graph.Network, *Sharded) {
	b.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := Build(g, Options{Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	return g, s
}

// BenchmarkSourceLabel times the source label, the router's one bounded
// search per new source, over 256 random sources of the 64×64 four-cell
// map, each a source change of one reused router.
func BenchmarkSourceLabel(b *testing.B) {
	g, s := benchMap(b)
	srcs := rand.New(rand.NewSource(64)).Perm(g.NumVertices())[:256]
	qc := core.NewQueryContext()
	i := 0
	for b.Loop() {
		s.routerFor(qc, graph.VertexID(srcs[i%len(srcs)])).ensureDU()
		i++
	}
}

// BenchmarkClosure times the boundary closure of the 64×64 four-cell map at
// one worker: one search per boundary vertex.
func BenchmarkClosure(b *testing.B) {
	g, s := benchMap(b)
	for b.Loop() {
		if _, err := buildClosure(g, s.asn, 1); err != nil {
			b.Fatal(err)
		}
	}
}
