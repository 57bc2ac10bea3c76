package partition

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/sssp"
	"silc/internal/store"
	"silc/internal/testkit"
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

// forgeNetwork returns a copy of the sharded image img whose one network
// section — the global one, which every cell's network is derived from —
// forge edits behind a recomputed section CRC, so that every checksum
// holds.
func forgeNetwork(tb testing.TB, img []byte, forge func(sec []byte, n int)) []byte {
	tb.Helper()
	le := binary.LittleEndian
	forged := append([]byte(nil), img...)
	n, m := int(le.Uint32(forged[16:20])), int(le.Uint32(forged[20:24]))
	sec := forged[le.Uint64(forged[28:36]):][:store.NetworkSectionSize(n, m)]
	forge(sec, n)
	le.PutUint32(sec[len(sec)-4:], crc32.ChecksumIEEE(sec[:len(sec)-4]))
	if bytes.Equal(forged, img) {
		tb.Fatal("the forgery changed nothing")
	}
	return forged
}

// nudge moves the float64 at b one step up.
func nudge(b []byte) {
	le := binary.LittleEndian
	le.PutUint64(b, math.Float64bits(math.Nextafter(math.Float64frombits(le.Uint64(b)), 2)))
}

// moveArc returns a copy of sx's image img forged behind valid checksums.
// In the global network vertex 0 takes one more arc and vertex 1 gives one
// up: vertex 1's first arc that leads neither to vertex 0 nor out of the
// cell the two share moves to the front of its list, then to the end of
// vertex 0's. Vertex and arc counts, cell labels and boundary are
// unchanged, and so is every cell's arc count. Vertex 0's run in its cell
// image then names, as the first color of its dictionary, the taken arc: a
// color equal to vertex 0's true intra-cell out-degree, in range only for
// the forged network. The network section's CRC, the run's page CRC and
// the cell's page CRC table's CRC are recomputed.
func moveArc(tb testing.TB, sx *Sharded, img []byte) []byte {
	tb.Helper()
	le := binary.LittleEndian
	asn := sx.asn
	c := asn.CellOf[0]
	if asn.CellOf[1] != c {
		tb.Fatalf("vertices 0 and 1 lie in cells %d and %d", c, asn.CellOf[1])
	}
	targets, _ := sx.g.Neighbors(0)
	localDeg := 0
	for _, t := range targets {
		if asn.CellOf[t] == c {
			localDeg++
		}
	}
	forged := forgeNetwork(tb, img, func(sec []byte, n int) {
		offsets := sec[n*16:]     // n+1 CSR offsets follow the coordinates,
		arcs := offsets[(n+1)*4:] // then the arcs, (target u32, weight f64) each
		deg0, end := int(le.Uint32(offsets[4:])), int(le.Uint32(offsets[8:]))
		moved := -1
		for i := deg0; i < end && moved < 0; i++ {
			if t := le.Uint32(arcs[i*12:]); t != 0 && asn.CellOf[t] == c {
				moved = i
			}
		}
		if moved < 0 {
			tb.Fatal("vertex 1 has no arc within its cell that vertex 0 can take")
		}
		var tmp [12]byte
		copy(tmp[:], arcs[deg0*12:])
		copy(arcs[deg0*12:(deg0+1)*12], arcs[moved*12:])
		copy(arcs[moved*12:], tmp[:])
		le.PutUint32(offsets[4:], uint32(deg0+1))
	})

	cellTabOff := int64(le.Uint64(forged[44:52]))
	image := forged[le.Uint64(forged[cellTabOff+int64(c)*24:]):]
	n := int(le.Uint32(image[16:20]))
	pageSize := int(le.Uint32(image[8:12]))
	extentOff, blockOff := le.Uint64(image[56:64]), le.Uint64(image[64:72])
	blockPages, crcTabOff := int(le.Uint64(image[72:80])), le.Uint64(image[80:88])
	// Vertex 0's run follows the runs of the local ids before its own: a
	// uvarint block count, the dictionary size, then the dictionary.
	local := int(asn.LocalOf[0])
	at := 0
	for l := range local {
		at += int(le.Uint32(image[extentOff+uint64(4*(n+l)):]))
	}
	if le.Uint32(image[extentOff+uint64(4*local):]) == 0 {
		tb.Fatal("vertex 0 has no blocks")
	}
	blocks := image[blockOff:][:blockPages*pageSize]
	_, w := binary.Uvarint(blocks[at:])
	at += w + 1
	blocks[at] = byte(localDeg)
	page := at / pageSize
	crcs := image[crcTabOff:][:blockPages*4+4]
	le.PutUint32(crcs[page*4:], crc32.ChecksumIEEE(blocks[page*pageSize:][:pageSize]))
	le.PutUint32(crcs[blockPages*4:], crc32.ChecksumIEEE(crcs[:blockPages*4]))
	return forged
}

// forgery is one forged copy of a sharded image. exact marks a forgery
// after which every answer must still be Dijkstra's on the forged network.
type forgery struct {
	name   string
	forged []byte
	exact  bool
}

// networkForgeries are the forgeries of the one network section of a
// sharded image: the first arc's weight or target, or the first vertex's
// x coordinate, each moved by the least step, and moveArc, last.
func networkForgeries(tb testing.TB, sx *Sharded, img []byte) []forgery {
	tb.Helper()
	le := binary.LittleEndian
	return []forgery{
		{"weight", forgeNetwork(tb, img, func(sec []byte, n int) { nudge(sec[n*16+(n+1)*4+4:]) }), true},
		{"target", forgeNetwork(tb, img, func(sec []byte, n int) {
			at := sec[n*16+(n+1)*4:] // the first arc is vertex 0's
			to := (le.Uint32(at) + 1) % uint32(n)
			if to == 0 {
				to = 1
			}
			le.PutUint32(at, to)
		}), false},
		{"coordinate", forgeNetwork(tb, img, func(sec []byte, n int) { nudge(sec) }), true},
		{"moved arc", moveArc(tb, sx, img), false},
	}
}

// openForged opens f's image with a small pool. An open that fails must
// fail with an error wrapping store.ErrCorrupt; it returns nil then.
func openForged(t *testing.T, f forgery) *Sharded {
	t.Helper()
	px, err := OpenPaged(bytes.NewReader(f.forged), int64(len(f.forged)), Options{poolPages: 4})
	if err != nil {
		if !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s: open returned %v, want an error wrapping store.ErrCorrupt", f.name, err)
		}
		return nil
	}
	return px
}

// queryForged runs ExactDistance, PathCtx and kNN (k = 5) from every third
// vertex of px, opened from f's image. No query may panic and every error
// wraps store.ErrCorrupt. If f is exact, every answered distance, path
// weight and neighbor distance is Dijkstra's on the forged network;
// otherwise the answers that differ are counted and logged.
func queryForged(t *testing.T, f forgery, px *Sharded) {
	t.Helper()
	g := px.Network()
	n := g.NumVertices()
	var objVerts []graph.VertexID
	for v := 0; v < n; v += 5 {
		objVerts = append(objVerts, graph.VertexID(v))
	}
	objs := knn.NewObjects(g, objVerts)
	const k = 5
	answered, failed, differ := 0, 0, 0
	check := func(what string, u graph.VertexID, qc *core.QueryContext, got, want float64) {
		t.Helper()
		if err := qc.Err(); err != nil {
			failed++
			if !errors.Is(err, store.ErrCorrupt) {
				t.Errorf("%s: %s from %d: %v, want an error wrapping store.ErrCorrupt", f.name, what, u, err)
			}
			return
		}
		answered++
		if math.Abs(want-got) <= 1e-9*(1+want) || math.IsInf(want, 1) && math.IsInf(got, 1) {
			return
		}
		differ++
		if f.exact {
			t.Errorf("%s: %s from %d: %v, Dijkstra on the forged network %v", f.name, what, u, got, want)
		}
	}
	for u := 0; u < n; u += 3 {
		src := graph.VertexID(u)
		truth := sssp.Dijkstra(g, src).Dist
		for v := 0; v < n; v += 2 {
			dst := graph.VertexID(v)
			qc := core.NewQueryContext()
			check(fmt.Sprintf("distance to %d", v), src, qc, core.ExactDistance(px, qc, src, dst), truth[v])
			qc = core.NewQueryContext()
			path := px.PathCtx(qc, src, dst)
			check(fmt.Sprintf("path to %d", v), src, qc, testkit.PathWeight(g, path), truth[v])
		}
		qc := core.NewQueryContext()
		res := knn.SearchSpec(px, qc, objs, src, knn.UnboundedSpec(k, knn.VariantKNN))
		want := make([]float64, len(objVerts))
		for i, o := range objVerts {
			want[i] = truth[o]
		}
		slices.Sort(want)
		got := make([]float64, len(res.Neighbors))
		for i, nb := range res.Neighbors {
			got[i] = truth[nb.Object.Vertex]
			if nb.Exact {
				check(fmt.Sprintf("kNN distance of %d", nb.Object.Vertex), src, qc, nb.Dist, got[i])
			}
		}
		slices.Sort(got)
		for i := range k {
			if i >= len(got) {
				check(fmt.Sprintf("kNN rank %d (missing)", i), src, qc, math.NaN(), want[i])
				continue
			}
			check(fmt.Sprintf("kNN rank %d", i), src, qc, got[i], want[i])
		}
	}
	t.Logf("%s: %d answers (%d queries failed), %d differ from Dijkstra on the forged network", f.name, answered, failed, differ)
}

// TestForgedCellNetworkNeverPanics opens the image moveArc forged: in the
// one network section, vertex 0 takes one of vertex 1's arcs within their
// cell, and vertex 0's run names the taken arc's color, in range only for
// the forged network; counts and checksums hold. Cell 0's network, derived
// from that section, is the forged one, so neither the open nor any query
// from every third vertex may panic, and every error wraps
// store.ErrCorrupt. The network is not the one the blocks were built on:
// the answers that differ from Dijkstra's on it are counted and logged.
func TestForgedCellNetworkNeverPanics(t *testing.T) {
	sx, img := buildPagedImage(t)
	f := forgery{"moved arc", moveArc(t, sx, img), false}
	if px := openForged(t, f); px != nil {
		queryForged(t, f, px)
	}
}

// TestOpenPagedChecksCellNetworks forges the one network section of a
// sharded image behind a valid CRC — the first arc's weight or target, or
// the first vertex's x coordinate, each moved by the least step. An open
// that fails must fail with store.ErrCorrupt. After an open, every cell's
// network is the forged global network restricted to the cell: each local
// vertex at its global vertex's coordinates, with the global arcs that stay
// in the cell, targets through LocalOf and weights bit for bit. Then no
// query may panic; after the weight and coordinate forgeries every answer
// is Dijkstra's on the forged network (queryForged). A sharded file trusts
// its CRC-valid network section exactly as a monolithic image trusts its
// own.
func TestOpenPagedChecksCellNetworks(t *testing.T) {
	sx, img := buildPagedImage(t)
	for _, f := range networkForgeries(t, sx, img) {
		if f.name == "moved arc" { // TestForgedCellNetworkNeverPanics
			continue
		}
		px := openForged(t, f)
		if px == nil {
			continue
		}
		g, asn := px.Network(), px.asn
		type arc struct {
			to graph.VertexID
			w  uint64
		}
		for c := range asn.P {
			sub := px.cells[c].ix.Network()
			if sub.NumVertices() != len(asn.Verts[c]) {
				t.Fatalf("%s: cell %d network has %d vertices, the cell %d", f.name, c, sub.NumVertices(), len(asn.Verts[c]))
			}
			for l, v := range asn.Verts[c] {
				local := graph.VertexID(l)
				if sub.Point(local) != g.Point(v) {
					t.Fatalf("%s: cell %d vertex %d at %v, global vertex %d at %v", f.name, c, l, sub.Point(local), v, g.Point(v))
				}
				var want, got []arc
				targets, weights := g.Neighbors(v)
				for i, to := range targets {
					if asn.CellOf[to] == int32(c) {
						want = append(want, arc{graph.VertexID(asn.LocalOf[to]), math.Float64bits(weights[i])})
					}
				}
				targets, weights = sub.Neighbors(local)
				for i, to := range targets {
					got = append(got, arc{to, math.Float64bits(weights[i])})
				}
				byArc := func(a, b arc) int { return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.w, b.w)) }
				slices.SortFunc(want, byArc)
				slices.SortFunc(got, byArc)
				if !slices.Equal(want, got) {
					t.Fatalf("%s: cell %d vertex %d arcs %v, global vertex %d's in the cell %v", f.name, c, l, got, v, want)
				}
			}
		}
		queryForged(t, f, px)
	}
}

// replaceCell returns a copy of the sharded image img whose cell c image
// is cellImg, appended page-aligned past the file's end: the cell table
// entry points at it, the page bases of the later cells move by the
// difference in block pages, the file size grows, and the cell table's and
// the superblock's CRCs are recomputed, so that every checksum holds.
func replaceCell(tb testing.TB, img []byte, c int, cellImg []byte) []byte {
	tb.Helper()
	le := binary.LittleEndian
	off := store.Align(int64(len(img)), store.PageSize)
	forged := append(append([]byte(nil), img...), make([]byte, off-int64(len(img)))...)
	forged = append(forged, cellImg...)
	p := int(le.Uint32(forged[12:16]))
	tab := forged[le.Uint64(forged[44:52]):][:p*24+4]
	oldPages := le.Uint64(forged[le.Uint64(tab[c*24:])+72:]) // the cell superblock's block-page count
	le.PutUint64(tab[c*24:], uint64(off))
	le.PutUint64(tab[c*24+8:], uint64(len(cellImg)))
	for later := c + 1; later < p; later++ {
		base := tab[later*24+16:]
		le.PutUint64(base, le.Uint64(base)+le.Uint64(cellImg[72:])-oldPages)
	}
	le.PutUint32(tab[p*24:], crc32.ChecksumIEEE(tab[:p*24]))
	le.PutUint64(forged[52:60], uint64(len(forged)))
	le.PutUint32(forged[60:64], crc32.ChecksumIEEE(forged[:60]))
	return forged
}

// networkSectionCells are copies of sx's image img whose cell 0 image is
// a full SILCPG3 image with its own network section, behind valid
// checksums: cell 0's own index written monolithically (the cell's counts),
// and the monolithic image of the whole network (other counts).
func networkSectionCells(tb testing.TB, sx *Sharded, img []byte) []forgery {
	tb.Helper()
	whole, err := core.Build(sx.g, core.BuildOptions{})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	var out []forgery
	for _, c := range []struct {
		name string
		ix   *core.Index
	}{{"cell 0 with its network", sx.cells[0].ix}, {"the whole network's image", whole}} {
		var buf bytes.Buffer
		if _, err := c.ix.WritePaged(&buf); err != nil {
			tb.Fatalf("%s: write paged: %v", c.name, err)
		}
		out = append(out, forgery{c.name, replaceCell(tb, img, 0, buf.Bytes()), false})
	}
	return out
}

// TestOpenPagedRefusesCellNetworkSection replaces cell 0's image in a
// sharded file with a full image that carries its own network section,
// every checksum intact. The cell's network is the one derived from the
// file's global section; an image with a second network, of the cell's
// counts or of others, fails to open with store.ErrCorrupt.
func TestOpenPagedRefusesCellNetworkSection(t *testing.T) {
	sx, img := buildPagedImage(t)
	for _, f := range networkSectionCells(t, sx, img) {
		_, err := OpenPaged(bytes.NewReader(f.forged), int64(len(f.forged)), Options{poolPages: 4})
		if !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s: open returned %v, want an error wrapping store.ErrCorrupt", f.name, err)
		}
	}
}

// TestOpenPagedDerivesCellNetworks opens a 4-cell and a 1-cell image and
// checks that the network each cell's store takes is the built cell's
// network arc for arc: the vertices at their coordinates, each with its arcs
// in order, targets equal and weights bit for bit. A 4-cell file derives
// each from its one network section; the 1-cell image is the monolithic
// SILCPG3 one, whose store reads its own section. The written ImageInfo
// counts that one network section and no other.
func TestOpenPagedDerivesCellNetworks(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{4, 1} {
		sx, err := Build(g, Options{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		info, err := sx.WritePaged(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := store.NetworkSectionSize(g.NumVertices(), g.NumEdges()); info.Network != want {
			t.Errorf("P=%d: ImageInfo.Network %d bytes, want the one global section's %d", parts, info.Network, want)
		}
		if sharded, err := store.Sniff(buf.Bytes()[:8]); err != nil || sharded != (parts > 1) {
			t.Errorf("P=%d: image magic %q", parts, buf.Bytes()[:8])
		}
		px, err := OpenPaged(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for c := range parts {
			built, opened := sx.cells[c].ix.Network(), px.cells[c].ix.Network()
			if built.NumVertices() != opened.NumVertices() || built.NumEdges() != opened.NumEdges() {
				t.Fatalf("P=%d cell %d: opened %d vertices and %d arcs, built %d and %d",
					parts, c, opened.NumVertices(), opened.NumEdges(), built.NumVertices(), built.NumEdges())
			}
			for v := range built.NumVertices() {
				l := graph.VertexID(v)
				if built.Point(l) != opened.Point(l) {
					t.Fatalf("P=%d cell %d vertex %d: opened at %v, built at %v", parts, c, v, opened.Point(l), built.Point(l))
				}
				bt, bw := built.Neighbors(l)
				ot, ow := opened.Neighbors(l)
				if !slices.Equal(bt, ot) || !slices.EqualFunc(bw, ow, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Fatalf("P=%d cell %d vertex %d: opened arcs %v %v, built %v %v", parts, c, v, ot, ow, bt, bw)
				}
			}
		}
	}
}

// TestOpenPagedRefusesOneCellShardedFile checks that a sharded file holds
// at least two cells: a one-cell index is written as the monolithic image,
// so a SILCSPG4 superblock claiming one cell, behind a valid checksum, fails
// to open.
func TestOpenPagedRefusesOneCellShardedFile(t *testing.T) {
	_, img := buildPagedImage(t)
	img = bytes.Clone(img)
	binary.LittleEndian.PutUint32(img[12:16], 1)
	binary.LittleEndian.PutUint32(img[60:64], crc32.ChecksumIEEE(img[:60]))
	if _, err := OpenPaged(bytes.NewReader(img), int64(len(img)), Options{}); err == nil || !strings.Contains(err.Error(), "partition count 1") {
		t.Fatalf("one-cell sharded file: open returned %v", err)
	}
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
