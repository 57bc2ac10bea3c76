package core

import (
	"bytes"
	"math"
	"testing"

	"silc/internal/graph"
)

func TestIndexSerializationRoundTrip(t *testing.T) {
	g := roadNet(t, 9, 9, 41)
	ix := buildIndex(t, g)

	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	back, err := Load(bytes.NewReader(buf.Bytes()), g, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats().TotalBlocks != ix.Stats().TotalBlocks {
		t.Fatalf("block totals differ: %d vs %d", back.Stats().TotalBlocks, ix.Stats().TotalBlocks)
	}
	// Query equivalence on a sample of pairs.
	for _, pair := range testPairs(g, 80, 43) {
		a := ix.DistanceInterval(pair[0], pair[1])
		b := back.DistanceInterval(pair[0], pair[1])
		if a != b {
			t.Fatalf("interval differs for %v: %+v vs %+v", pair, a, b)
		}
		da, db := ix.Distance(pair[0], pair[1]), back.Distance(pair[0], pair[1])
		if math.Abs(da-db) > 1e-12 {
			t.Fatalf("distance differs for %v: %v vs %v", pair, da, db)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	g := roadNet(t, 7, 7, 44)
	ix := buildIndex(t, g)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// Flip one byte in the block payload: CRC must catch it.
	corrupt := append([]byte(nil), pristine...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if _, err := Load(bytes.NewReader(corrupt), g, BuildOptions{}); err == nil {
		t.Fatal("corrupted payload accepted")
	}

	// Truncated file.
	if _, err := Load(bytes.NewReader(pristine[:len(pristine)-8]), g, BuildOptions{}); err == nil {
		t.Fatal("truncated file accepted")
	}

	// Bad magic.
	bad := append([]byte(nil), pristine...)
	bad[0] = 'X'
	if _, err := Load(bytes.NewReader(bad), g, BuildOptions{}); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Wrong network (different vertex count).
	other := roadNet(t, 6, 6, 45)
	if other.NumVertices() == g.NumVertices() {
		t.Skip("networks coincidentally equal")
	}
	if _, err := Load(bytes.NewReader(pristine), other, BuildOptions{}); err == nil {
		t.Fatal("mismatched network accepted")
	}
}

func TestLoadRejectsSemanticMismatch(t *testing.T) {
	// Same vertex count, different network: colors can exceed out-degrees
	// or coverage can fail. Build an index on one network and load it
	// against a sparser one with the same vertex set.
	g := roadNet(t, 7, 7, 46)
	ix := buildIndex(t, g)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// A chain over the same vertex positions: out-degrees drop to <= 2.
	b := graph.NewBuilder()
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.Point(graph.VertexID(v)))
	}
	for v := 0; v+1 < g.NumVertices(); v++ {
		b.AddBiEdge(graph.VertexID(v), graph.VertexID(v+1), 0.01)
	}
	chain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), chain, BuildOptions{}); err == nil {
		t.Fatal("index accepted against a structurally different network")
	}
}
