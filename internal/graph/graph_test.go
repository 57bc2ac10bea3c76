package graph

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"silc/internal/geom"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder()
	a := b.AddVertex(geom.Point{X: 0.1, Y: 0.1})
	c := b.AddVertex(geom.Point{X: 0.9, Y: 0.1})
	d := b.AddVertex(geom.Point{X: 0.5, Y: 0.9})
	b.AddBiEdge(a, c, 1.0)
	b.AddEdge(c, d, 2.0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if got := g.Degree(c); got != 2 {
		t.Fatalf("Degree(c)=%d want 2", got)
	}
	if w, ok := g.EdgeWeight(c, d); !ok || w != 2.0 {
		t.Fatalf("EdgeWeight(c,d)=%v,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(d, c); ok {
		t.Fatal("edge d->c should not exist")
	}
}

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*Builder)
	}{
		{"empty", func(b *Builder) {}},
		{"out of square", func(b *Builder) {
			b.AddVertex(geom.Point{X: 1.5, Y: 0.5})
		}},
		{"duplicate cell", func(b *Builder) {
			b.AddVertex(geom.Point{X: 0.5, Y: 0.5})
			b.AddVertex(geom.Point{X: 0.5, Y: 0.5})
		}},
		{"self loop", func(b *Builder) {
			v := b.AddVertex(geom.Point{X: 0.5, Y: 0.5})
			b.AddEdge(v, v, 1)
		}},
		{"bad endpoint", func(b *Builder) {
			v := b.AddVertex(geom.Point{X: 0.5, Y: 0.5})
			b.AddEdge(v, v+7, 1)
		}},
		{"zero weight", func(b *Builder) {
			u := b.AddVertex(geom.Point{X: 0.25, Y: 0.5})
			v := b.AddVertex(geom.Point{X: 0.75, Y: 0.5})
			b.AddEdge(u, v, 0)
		}},
		{"nan weight", func(b *Builder) {
			u := b.AddVertex(geom.Point{X: 0.25, Y: 0.5})
			v := b.AddVertex(geom.Point{X: 0.75, Y: 0.5})
			b.AddEdge(u, v, math.NaN())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.setup(b)
			if _, err := b.Build(); err == nil {
				t.Fatal("expected Build error")
			}
		})
	}
}

func TestMortonOrderSorted(t *testing.T) {
	g, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	order := g.MortonOrder()
	for i := 1; i < len(order); i++ {
		if g.Code(order[i-1]) >= g.Code(order[i]) {
			t.Fatalf("order not strictly increasing at %d", i)
		}
	}
	for i, v := range order {
		if int(g.MortonRank(v)) != i {
			t.Fatalf("rank mismatch for %d", v)
		}
	}
}

func TestGenerateRoadNetworkProperties(t *testing.T) {
	g, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 20, Cols: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() < 200 {
		t.Fatalf("suspiciously small network: %d vertices", g.NumVertices())
	}
	// Weight >= Euclidean length of the segment (lambda >= 1 precondition).
	for _, e := range edges(g) {
		d := g.Euclid(e.From, e.To)
		if e.Weight < d-1e-12 {
			t.Fatalf("edge %d->%d weight %v below Euclid %v", e.From, e.To, e.Weight, d)
		}
	}
	// Symmetry: the generator emits bidirectional roads.
	for _, e := range edges(g) {
		if w, ok := g.EdgeWeight(e.To, e.From); !ok || w != e.Weight {
			t.Fatalf("edge %d->%d not symmetric", e.From, e.To)
		}
	}
	// Connectivity: every vertex reachable from vertex 0 (undirected BFS is
	// what LargestComponent guarantees; edges are symmetric so this suffices).
	seen := make([]bool, g.NumVertices())
	stack := []VertexID{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		targets, _ := g.Neighbors(v)
		for _, tgt := range targets {
			if !seen[tgt] {
				seen[tgt] = true
				stack = append(stack, tgt)
			}
		}
	}
	if count != g.NumVertices() {
		t.Fatalf("component extraction failed: reached %d of %d", count, g.NumVertices())
	}
}

func TestGenerateRoadNetworkDeterministic(t *testing.T) {
	a, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 10, Cols: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 10, Cols: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different networks")
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Point(VertexID(v)) != b.Point(VertexID(v)) {
			t.Fatalf("vertex %d differs", v)
		}
	}
}

func TestGenerateGrid(t *testing.T) {
	g, err := GenerateGrid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 12 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Interior degree 4, corner degree 2.
	if got := g.Degree(0); got != 2 {
		t.Fatalf("corner degree = %d", got)
	}
	if got := g.Degree(5); got != 4 { // row 1, col 1 is interior
		t.Fatalf("interior degree = %d", got)
	}
}

func TestGenerateRingRadial(t *testing.T) {
	g, err := GenerateRingRadial(3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1+3*8 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.Degree(0) != 8 { // plaza connects to first ring
		t.Fatalf("plaza degree = %d", g.Degree(0))
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder()
	// Component 1: three vertices in a path.
	v0 := b.AddVertex(geom.Point{X: 0.1, Y: 0.1})
	v1 := b.AddVertex(geom.Point{X: 0.2, Y: 0.1})
	v2 := b.AddVertex(geom.Point{X: 0.3, Y: 0.1})
	b.AddBiEdge(v0, v1, 1)
	b.AddBiEdge(v1, v2, 1)
	// Component 2: a pair.
	v3 := b.AddVertex(geom.Point{X: 0.7, Y: 0.7})
	v4 := b.AddVertex(geom.Point{X: 0.8, Y: 0.7})
	b.AddBiEdge(v3, v4, 1)
	// Isolated vertex.
	b.AddVertex(geom.Point{X: 0.9, Y: 0.9})

	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, oldIDs, err := LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 {
		t.Fatalf("largest component has %d vertices, want 3", sub.NumVertices())
	}
	if len(oldIDs) != 3 || oldIDs[0] != v0 || oldIDs[1] != v1 || oldIDs[2] != v2 {
		t.Fatalf("oldIDs = %v", oldIDs)
	}
	if sub.NumEdges() != 4 {
		t.Fatalf("edges = %d want 4", sub.NumEdges())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	g, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 8, Cols: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Point(VertexID(v)) != g2.Point(VertexID(v)) {
			t.Fatalf("vertex %d position differs", v)
		}
		ta, wa := g.Neighbors(VertexID(v))
		tb, wb := g2.Neighbors(VertexID(v))
		if len(ta) != len(tb) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range ta {
			if ta[i] != tb[i] || wa[i] != wb[i] {
				t.Fatalf("vertex %d edge %d differs", v, i)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"",
		"not-a-network 1\n",
		"silc-network 99\n1 0\n0.5 0.5\n",
		"silc-network 1\n2 1\n0.5 0.5\n",        // missing vertex + edge lines
		"silc-network 1\n1 1\n0.5 0.5\n0 0 1\n", // self loop
	} {
		if _, err := Read(bytes.NewReader([]byte(s))); err == nil {
			t.Fatalf("expected error for %q", s)
		}
	}
}

// TestReadParsesWriteExactly round-trips Write output through Read with
// awkward coordinates and weights, and checks every parsed value bit for
// bit against fmt.Sscanf, the parser Read used before it went to strconv.
func TestReadParsesWriteExactly(t *testing.T) {
	b := NewBuilder()
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0.9999999999999999, Y: 1.0 / 3}, {X: 0.1 + 0.2, Y: 5e-324}, {X: 0.5, Y: 0.7}}
	for _, p := range pts {
		b.AddVertex(p)
	}
	for i, w := range []float64{1.0 / 3, 1e-300, 0.1 + 0.2, math.MaxFloat64, 5e-324, 2, 1e21, 123456789.123456789} {
		u := VertexID(i % len(pts))
		b.AddEdge(u, (u+1+VertexID(i/len(pts)))%VertexID(len(pts)), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := Write(&text, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := Write(&again, g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), text.Bytes()) {
		t.Fatalf("Write(Read(Write(g))) differs from Write(g):\n%s\nvs\n%s", again.Bytes(), text.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(text.String()), "\n")[2:]
	for v := 0; v < g2.NumVertices(); v++ {
		var want geom.Point
		if _, err := fmt.Sscanf(lines[v], "%g %g", &want.X, &want.Y); err != nil {
			t.Fatal(err)
		}
		if got := g2.Point(VertexID(v)); math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
			t.Errorf("vertex line %q: Read %v, fmt.Sscanf %v", lines[v], got, want)
		}
	}
	for i, e := range edges(g2) {
		line := lines[g2.NumVertices()+i]
		var from, to int
		var w float64
		if _, err := fmt.Sscanf(line, "%d %d %g", &from, &to, &w); err != nil {
			t.Fatal(err)
		}
		if e.From != VertexID(from) || e.To != VertexID(to) || math.Float64bits(e.Weight) != math.Float64bits(w) {
			t.Errorf("edge line %q: Read %v, fmt.Sscanf %d %d %v", line, e, from, to, w)
		}
	}
}

// TestReadRejectsMalformedLines feeds one bad line at a time into an
// otherwise valid file and requires an error that quotes it.
func TestReadRejectsMalformedLines(t *testing.T) {
	const valid = "silc-network 1\n2 2\n0.25 0.25\n0.75 0.75\n0 1 1\n1 0 1\n"
	for _, tc := range []struct{ bad, in string }{
		{"silc-network", "silc-network\n"},
		{"silc-network x", "silc-network x\n"},
		{"silc-network 1 2", "silc-network 1 2\n"},
		{"silc-net 1", "silc-net 1\n2 0\n"},
		{"2", "silc-network 1\n2\n"},
		{"2 two", "silc-network 1\n2 two\n"},
		{"2 2 2", "silc-network 1\n2 2 2\n"},
		{"0.25", strings.Replace(valid, "0.25 0.25", "0.25", 1)},
		{"0.25 0.25 0.25", strings.Replace(valid, "0.25 0.25", "0.25 0.25 0.25", 1)},
		{"0.25 y", strings.Replace(valid, "0.25 0.25", "0.25 y", 1)},
		{"0.25 0.25x", strings.Replace(valid, "0.25 0.25", "0.25 0.25x", 1)},
		{"0,25 0.25", strings.Replace(valid, "0.25 0.25", "0,25 0.25", 1)},
		{"0 1", strings.Replace(valid, "0 1 1", "0 1", 1)},
		{"0 1 1 1", strings.Replace(valid, "0 1 1", "0 1 1 1", 1)},
		{"0 1.5 1", strings.Replace(valid, "0 1 1", "0 1.5 1", 1)},
		{"0 4294967297 1", strings.Replace(valid, "0 1 1", "0 4294967297 1", 1)},
		{"0 1 w", strings.Replace(valid, "0 1 1", "0 1 w", 1)},
		{"0 1 1e999", strings.Replace(valid, "0 1 1", "0 1 1e999", 1)},
	} {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%q: no error", tc.bad)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.bad)) {
			t.Errorf("%q: error %q does not quote the line", tc.bad, err)
		}
	}
	if _, err := Read(strings.NewReader("# comment\n\n" + strings.ReplaceAll(valid, " ", " \t "))); err != nil {
		t.Errorf("comments, blank lines and mixed white space: %v", err)
	}
}

func TestNearestVertex(t *testing.T) {
	g, err := GenerateGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got := g.NearestVertex(g.Point(VertexID(v))); got != VertexID(v) {
			t.Fatalf("NearestVertex of vertex %d = %d", v, got)
		}
	}
}

// edges lists every directed edge, in vertex then adjacency order.
func edges(g *Network) []Edge {
	var out []Edge
	for v := 0; v < g.NumVertices(); v++ {
		targets, weights := g.Neighbors(VertexID(v))
		for i := range targets {
			out = append(out, Edge{From: VertexID(v), To: targets[i], Weight: weights[i]})
		}
	}
	return out
}
