package testkit

import (
	"math"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
)

func TestGenerateRandomConnected(t *testing.T) {
	g, err := GenerateRandomConnected(50, 40, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 50 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	for _, e := range Edges(g) {
		if e.Weight < g.Euclid(e.From, e.To)-1e-12 {
			t.Fatal("weight below Euclidean length")
		}
	}
}

func TestPathWeightRejectsNonPath(t *testing.T) {
	g, err := graph.GenerateGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(PathWeight(g, []graph.VertexID{0, 8}), 1) {
		t.Fatal("PathWeight accepted a non-edge hop")
	}
	if !math.IsInf(PathWeight(g, nil), 1) {
		t.Fatal("PathWeight of empty path should be Inf")
	}
	if got := PathWeight(g, []graph.VertexID{4}); got != 0 {
		t.Fatalf("single-vertex path weight = %v", got)
	}
}

func TestNeighborIndex(t *testing.T) {
	b := graph.NewBuilder()
	a := b.AddVertex(geom.Point{X: 0.1, Y: 0.1})
	c := b.AddVertex(geom.Point{X: 0.9, Y: 0.1})
	d := b.AddVertex(geom.Point{X: 0.5, Y: 0.9})
	b.AddBiEdge(a, c, 1.0)
	b.AddEdge(c, d, 2.0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := NeighborIndex(g, a, c); got != 0 {
		t.Fatalf("NeighborIndex(a,c)=%d", got)
	}
	if got := NeighborIndex(g, a, d); got != -1 {
		t.Fatalf("NeighborIndex(a,d)=%d want -1", got)
	}
}
