package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"silc/internal/graph"
	"silc/internal/sssp"
	"silc/internal/testkit"
)

// Property-based tests (testing/quick) over randomly generated networks:
// the SILC invariants must hold for arbitrary seeds, sizes, and topologies.

// quickNet derives a random connected network from quick's raw inputs.
func quickNet(seedRaw int64, sizeRaw uint8, lattice bool) (*graph.Network, error) {
	if lattice {
		rows := 4 + int(sizeRaw%8)
		cols := 4 + int((sizeRaw/8)%8)
		return graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: seedRaw})
	}
	n := 10 + int(sizeRaw%50)
	return testkit.GenerateRandomConnected(n, n/2, 0.5, seedRaw)
}

func TestQuickIntervalContainment(t *testing.T) {
	f := func(seedRaw int64, sizeRaw uint8, lattice bool) bool {
		g, err := quickNet(seedRaw, sizeRaw, lattice)
		if err != nil {
			return false
		}
		ix, err := Build(g, BuildOptions{})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seedRaw ^ 0x5a5a))
		src := graph.VertexID(rng.Intn(g.NumVertices()))
		tree := sssp.Dijkstra(g, src)
		for v := 0; v < g.NumVertices(); v++ {
			iv := ix.DistanceIntervalCtx(nil, src, graph.VertexID(v))
			d := tree.Dist[v]
			if src == graph.VertexID(v) {
				d = 0
			}
			if iv.Lo > d+1e-9 || iv.Hi < d-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRefinementNeverWidensAndConverges(t *testing.T) {
	f := func(seedRaw int64, sizeRaw uint8, lattice bool) bool {
		g, err := quickNet(seedRaw, sizeRaw, lattice)
		if err != nil {
			return false
		}
		ix, err := Build(g, BuildOptions{})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seedRaw ^ 0x3c3c))
		for trial := 0; trial < 5; trial++ {
			s := graph.VertexID(rng.Intn(g.NumVertices()))
			d := graph.VertexID(rng.Intn(g.NumVertices()))
			want := sssp.ShortestPath(g, s, d).Dist
			if s == d {
				want = 0
			}
			r := ix.NewRefinerCtx(nil, s, d)
			prev := r.Interval()
			steps := 0
			for !r.Done() {
				r.Step()
				cur := r.Interval()
				if cur.Lo < prev.Lo-1e-9 || cur.Hi > prev.Hi+1e-9 {
					return false
				}
				prev = cur
				if steps++; steps > g.NumVertices() {
					return false
				}
			}
			if math.Abs(r.Interval().Lo-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPathOptimality(t *testing.T) {
	f := func(seedRaw int64, sizeRaw uint8, lattice bool) bool {
		g, err := quickNet(seedRaw, sizeRaw, lattice)
		if err != nil {
			return false
		}
		ix, err := Build(g, BuildOptions{})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seedRaw ^ 0x7e7e))
		for trial := 0; trial < 5; trial++ {
			s := graph.VertexID(rng.Intn(g.NumVertices()))
			d := graph.VertexID(rng.Intn(g.NumVertices()))
			path := ix.PathCtx(nil, s, d)
			if path[0] != s || path[len(path)-1] != d {
				return false
			}
			if s == d {
				continue
			}
			want := sssp.ShortestPath(g, s, d).Dist
			if math.Abs(testkit.PathWeight(g, path)-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSerializationIdentity(t *testing.T) {
	f := func(seedRaw int64, sizeRaw uint8) bool {
		g, err := quickNet(seedRaw, sizeRaw, true)
		if err != nil {
			return false
		}
		ix, err := Build(g, BuildOptions{})
		if err != nil {
			return false
		}
		back := pagedIndex(t, ix, 1)
		rng := rand.New(rand.NewSource(seedRaw ^ 0x1111))
		for trial := 0; trial < 10; trial++ {
			u := graph.VertexID(rng.Intn(g.NumVertices()))
			v := graph.VertexID(rng.Intn(g.NumVertices()))
			if ix.DistanceIntervalCtx(nil, u, v) != back.DistanceIntervalCtx(nil, u, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
