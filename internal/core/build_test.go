package core

import (
	"math"
	"reflect"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
	"silc/internal/sssp"
	"silc/internal/testkit"
)

// referenceTree is the per-source loop Build ran before its rank-space
// search: a vertex-space sssp.Workspace run, then colors from
// NeighborIndex of each vertex's first hop, walked in Morton order.
func referenceTree(g *graph.Network, qb *quadtree.Builder, ws *sssp.Workspace, source graph.VertexID) *quadtree.Tree {
	n := g.NumVertices()
	colors, ratios := make([]int32, n), make([]float64, n)
	tree := ws.Run(g, source)
	for i, v := range g.MortonOrder() {
		switch d := tree.Dist[v]; {
		case v == source:
			colors[i] = quadtree.NoColor
		case math.IsInf(d, 1):
			colors[i] = quadtree.OutOfRange
		default:
			colors[i] = int32(testkit.NeighborIndex(g, source, tree.FirstHop[v]))
			ratios[i] = d / g.Euclid(source, v)
		}
	}
	return qb.Build(colors, ratios)
}

// parallelEdgeLattice is a 6×6 lattice in which every street carries a
// second, parallel edge: for some the copy comes first and is longer, for
// some it ties, for some it is shorter and comes second, so the color must
// be the first parallel edge of minimum weight.
func parallelEdgeLattice(t *testing.T) *graph.Network {
	const n = 6
	b := graph.NewBuilder()
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b.AddVertex(geom.Point{X: (float64(c) + 0.5) / n, Y: (float64(r) + 0.5) / n})
		}
	}
	at := func(r, c int) graph.VertexID { return graph.VertexID(r*n + c) }
	street := func(u, v graph.VertexID, k int) {
		w := 1.0 / n
		switch k % 3 {
		case 0: // longer copy first
			b.AddBiEdge(u, v, 1.5*w)
			b.AddBiEdge(u, v, w)
		case 1: // equal copies
			b.AddBiEdge(u, v, w)
			b.AddBiEdge(u, v, w)
		default: // shorter copy second, after a longer one
			b.AddBiEdge(u, v, w)
			b.AddBiEdge(u, v, 0.75*w)
		}
	}
	k := 0
	for r := 0; r < n; r++ {
		for c := 0; c+1 < n; c++ {
			street(at(r, c), at(r, c+1), k)
			street(at(c, r), at(c+1, r), k+1)
			k++
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBuildMatchesDeletedLoop requires every tree of Build to equal the
// tree the old vertex-space loop builds, on ties (lattices), a road map, a
// non-planar random graph, parallel edges, and one-way streets with
// unreachable vertices.
func TestBuildMatchesDeletedLoop(t *testing.T) {
	grid, err := graph.GenerateGrid(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	random, err := testkit.GenerateRandomConnected(60, 60, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	road := roadNet(t, 16, 16, 2)
	for _, tc := range []struct {
		name string
		g    *graph.Network
		opts BuildOptions
	}{
		{"grid9", grid, BuildOptions{}},
		{"road16", road, BuildOptions{}},
		{"random60", random, BuildOptions{}},
		{"parallel-edges", parallelEdgeLattice(t), BuildOptions{}},
		{"one-way-lenient", oneWayLenient(t), BuildOptions{AllowUnreachable: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := Build(tc.g, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.g.NumVertices()
			codes := make([]geom.Code, n)
			for i, v := range tc.g.MortonOrder() {
				codes[i] = tc.g.Code(v)
			}
			qb := quadtree.NewBuilder(codes)
			ws := sssp.NewWorkspace(n)
			for s := 0; s < n; s++ {
				want := referenceTree(tc.g, qb, ws, graph.VertexID(s))
				got := &ix.trees[s]
				if !reflect.DeepEqual(got.Blocks, want.Blocks) || got.MinLambda != want.MinLambda {
					t.Fatalf("source %d: %d blocks (min λ %v), reference %d (min λ %v)",
						s, len(got.Blocks), got.MinLambda, len(want.Blocks), want.MinLambda)
				}
			}
		})
	}
}
