package partition

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
)

// buildPagedImage builds a sharded index over a road network and returns
// it plus its serialized paged image.
func buildPagedImage(t *testing.T) (*Sharded, []byte) {
	t.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 23})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	sx, err := Build(g, Options{Partitions: 4})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := sx.WritePaged(&buf); err != nil {
		t.Fatalf("write paged: %v", err)
	}
	return sx, buf.Bytes()
}

// TestOpenPagedRoundTrip checks the paged sharded open answers exactly
// like the in-RAM sharded index.
func TestOpenPagedRoundTrip(t *testing.T) {
	sx, img := buildPagedImage(t)
	px, err := OpenPaged(bytes.NewReader(img), int64(len(img)), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	n := sx.Network().NumVertices()
	for u := 0; u < n; u += 7 {
		for v := 0; v < n; v += 11 {
			qc := core.NewQueryContext()
			want := core.ExactDistance(sx, nil, graph.VertexID(u), graph.VertexID(v))
			got := core.ExactDistance(px, qc, graph.VertexID(u), graph.VertexID(v))
			if err := qc.Err(); err != nil {
				t.Fatalf("paged distance %d->%d: %v", u, v, err)
			}
			if math.Abs(want-got) > 1e-9*(1+want) {
				t.Fatalf("distance %d->%d: paged %v, in-RAM %v", u, v, got, want)
			}
		}
	}
}

// TestCorruptCellPageErrorsNotPanics corrupts one block page inside a cell
// image of a sharded paged file and checks that cross-cell path retrieval
// through that cell surfaces an error on the query context — never a panic
// (the stitcher indexes into cell path segments) and never a wrong path.
func TestCorruptCellPageErrorsNotPanics(t *testing.T) {
	sx, img := buildPagedImage(t)

	// Locate the last cell's image via the cell table, then its first block
	// page via the embedded superblock, and flip a byte there: the page CRC
	// check fails lazily, at query time.
	le := binary.LittleEndian
	p := int(le.Uint32(img[12:16]))
	cellTabOff := int64(le.Uint64(img[44:52]))
	victim := p - 1
	imageOff := int64(le.Uint64(img[cellTabOff+int64(victim)*24:]))
	blockOff := int64(le.Uint64(img[imageOff+64 : imageOff+72])) // the superblock's block-section offset
	corrupt := append([]byte(nil), img...)
	corrupt[imageOff+blockOff] ^= 0xFF

	px, err := OpenPaged(bytes.NewReader(corrupt), int64(len(corrupt)), Options{})
	if err != nil {
		t.Fatalf("open (block pages are lazy; corruption must not fail open): %v", err)
	}

	// A query vertex outside the victim cell, destinations inside it.
	var src, dst graph.VertexID = -1, -1
	for v := 0; v < px.Network().NumVertices(); v++ {
		if px.CellOf(graph.VertexID(v)) != victim && src < 0 {
			src = graph.VertexID(v)
		}
		if px.CellOf(graph.VertexID(v)) == victim {
			dst = graph.VertexID(v)
		}
	}
	if src < 0 || dst < 0 {
		t.Fatal("could not pick a cross-cell pair")
	}

	sawErr := false
	for v := 0; v < px.Network().NumVertices() && !sawErr; v++ {
		if px.CellOf(graph.VertexID(v)) != victim {
			continue
		}
		qc := core.NewQueryContext()
		path := px.PathCtx(qc, src, graph.VertexID(v)) // must not panic
		if err := qc.Err(); err != nil {
			sawErr = true
			if path != nil {
				t.Fatalf("failed query returned a non-nil path %v", path)
			}
			continue
		}
		// No error: the path must be the correct one.
		want := sx.PathCtx(nil, src, graph.VertexID(v))
		if len(path) != len(want) {
			t.Fatalf("path %d->%d: %d hops, want %d", src, v, len(path)-1, len(want)-1)
		}
	}
	if !sawErr {
		t.Fatal("corrupted cell page never surfaced as a query error")
	}
}
