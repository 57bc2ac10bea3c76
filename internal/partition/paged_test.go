package partition

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/store"
)

// buildPagedImage builds a sharded index over a road network and returns
// it plus its serialized paged image.
func buildPagedImage(tb testing.TB) (*Sharded, []byte) {
	tb.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 23})
	if err != nil {
		tb.Fatalf("generate: %v", err)
	}
	sx, err := Build(g, Options{Partitions: 4})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := sx.WritePaged(&buf); err != nil {
		tb.Fatalf("write paged: %v", err)
	}
	return sx, buf.Bytes()
}

// forgeCell returns a copy of the sharded image img forged behind valid
// checksums, so that it opens. In cell c's embedded network, local vertex 0
// takes one more arc and vertex 1 gives one up: an arc of vertex 1 that
// does not lead to vertex 0 moves to the front of its list, then to vertex
// 0. Vertex and arc counts are unchanged. Vertex 0's run then names, as the
// first color of its dictionary, the taken arc: a color equal to vertex 0's
// true out-degree, in range only for the forged list. The network
// section's CRC, the run's page CRC and the page CRC table's CRC are
// recomputed.
func forgeCell(tb testing.TB, img []byte, c int) []byte {
	tb.Helper()
	le := binary.LittleEndian
	cellTabOff := int64(le.Uint64(img[44:52]))
	imageOff := int64(le.Uint64(img[cellTabOff+int64(c)*24:]))
	forged := append([]byte(nil), img...)
	image := forged[imageOff:]
	pageSize := int64(le.Uint32(image[8:12]))
	n, m := int(le.Uint32(image[16:20])), int(le.Uint32(image[20:24]))
	netOff, blockOff := le.Uint64(image[48:56]), le.Uint64(image[64:72])
	blockPages, crcTabOff := int64(le.Uint64(image[72:80])), le.Uint64(image[80:88])

	size := store.NetworkSectionSize(n, m)
	sec := image[netOff:][:size]
	offsets := sec[n*16:]            // n+1 CSR offsets follow the coordinates,
	arcs := offsets[(n+1)*4:][:m*12] // then m arcs of (target u32, weight f64)
	deg0, end := int(le.Uint32(offsets[4:])), int(le.Uint32(offsets[8:]))
	moved := -1
	for i := deg0; i < end && moved < 0; i++ {
		if le.Uint32(arcs[i*12:]) != 0 {
			moved = i
		}
	}
	if n < 2 || moved < 0 {
		tb.Fatalf("cell %d: vertex 1 has no arc that vertex 0 can take", c)
	}
	var tmp [12]byte
	copy(tmp[:], arcs[deg0*12:])
	copy(arcs[deg0*12:(deg0+1)*12], arcs[moved*12:])
	copy(arcs[moved*12:], tmp[:])
	le.PutUint32(offsets[4:], uint32(deg0+1))
	le.PutUint32(sec[size-4:], crc32.ChecksumIEEE(sec[:size-4]))

	// Vertex 0's run is the block section's first: a uvarint block count,
	// the dictionary size, then the dictionary.
	page := image[blockOff:][:pageSize]
	_, w := binary.Uvarint(page)
	page[w+1] = byte(deg0)
	crcs := image[crcTabOff:][:blockPages*4+4]
	le.PutUint32(crcs, crc32.ChecksumIEEE(page))
	le.PutUint32(crcs[blockPages*4:], crc32.ChecksumIEEE(crcs[:blockPages*4]))
	return forged
}

// TestForgedCellNetworkNeverPanics queries from the vertex forgeCell
// forged. Its blocks name a color in range for the adjacency list embedded
// in the cell image, which the store checks colors against, but not for
// the true one; a cell index that walked a second copy of the network,
// derived from the global one, indexed past the end of it and panicked.
// Every distance and path query from it must return an answer or an error
// wrapping store.ErrCorrupt.
func TestForgedCellNetworkNeverPanics(t *testing.T) {
	_, img := buildPagedImage(t)
	const victim = 0
	forged := forgeCell(t, img, victim)
	px, err := OpenPaged(bytes.NewReader(forged), int64(len(forged)), Options{})
	if err != nil {
		t.Fatalf("open (the forged network keeps its counts and checksum): %v", err)
	}
	src := px.asn.Verts[victim][0] // the cell's local vertex 0
	var failed, answered int
	for v := 0; v < px.Network().NumVertices(); v++ {
		dst := graph.VertexID(v)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("query %d->%d panicked: %v", src, dst, r)
				}
			}()
			for _, query := range []func(*core.QueryContext){
				func(qc *core.QueryContext) { core.ExactDistance(px, qc, src, dst) },
				func(qc *core.QueryContext) { px.PathCtx(qc, src, dst) },
			} {
				qc := core.NewQueryContext()
				query(qc)
				switch err := qc.Err(); {
				case err == nil:
					answered++
				case errors.Is(err, store.ErrCorrupt):
					failed++
				default:
					t.Fatalf("query %d->%d: %v, want an error wrapping store.ErrCorrupt", src, dst, err)
				}
			}
		}()
	}
	t.Logf("%d queries failed with store.ErrCorrupt, %d answered", failed, answered)
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
