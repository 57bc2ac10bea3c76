package store_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
	"silc/internal/store"
)

// checkLookups holds the single-block lookup to the whole-run decode of
// the same run, read whole and a few bytes at a time. On a run the decode
// accepts, every probe — inside, at the edges of and between the decoded
// blocks — must return exactly the block the decoded tree finds, decoding
// exactly the blocks from its restart entry through the first block ending
// past the probe. On a run the decode rejects, a lookup may fail or answer
// from the part of the run it reads, but must not panic.
func checkLookups(t *testing.T, data []byte, count, deg int, blocks []quadtree.Block, decodeErr error) {
	t.Helper()
	probes := []geom.Code{0, 1 << 30, 1 << 31, 1<<(2*geom.MaxLevel) - 1, 1 << (2 * geom.MaxLevel)}
	for _, b := range blocks {
		probes = append(probes, b.Cell.Code, b.Cell.Code-1, b.Cell.End()-1, b.Cell.End())
	}
	tree := &quadtree.Tree{Blocks: blocks}
	for _, code := range probes {
		for _, chunk := range []int{0, 7} {
			got, ok, decoded, err := store.LookupRun(data, count, deg, code, chunk)
			if decodeErr != nil {
				continue
			}
			var want quadtree.Block
			i, wok := tree.FindIndex(code)
			if wok {
				want = tree.Blocks[i]
			}
			if limit := spanDecodes(tree, code); err != nil || ok != wok || got != want || int64(decoded) != limit {
				t.Fatalf("probe %x (chunk %d): lookup %+v ok=%v (%d decoded) err=%v, decoded tree %+v ok=%v (%d of %d blocks)",
					code, chunk, got, ok, decoded, err, want, wok, limit, len(blocks))
			}
		}
	}
}

// pageDecodeSeeds builds seed inputs for the compressed-run decoder: a real
// delta-compressed vertex run plus hand-mangled variants, the longest run
// of a 12×12 grid, which has restart entries to start from, and that run
// with its first entry's offset off by one, then the shift of its
// aligned end code.
func pageDecodeSeeds(tb testing.TB) []struct {
	data  []byte
	count uint16
} {
	tb.Helper()
	g, err := graph.GenerateGrid(5, 5)
	if err != nil {
		tb.Fatalf("grid: %v", err)
	}
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := ix.WritePaged(&buf); err != nil {
		tb.Fatalf("write: %v", err)
	}
	img := buf.Bytes()
	st, err := store.Open(bytes.NewReader(img), int64(len(img)), store.OpenOptions{})
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	t0, err := st.Tree(nil, 0)
	if err != nil {
		tb.Fatalf("tree: %v", err)
	}
	run, err := store.CompressRun(nil, t0.Blocks)
	if err != nil {
		tb.Fatalf("compress: %v", err)
	}
	count := uint16(len(t0.Blocks))
	flipGap := append([]byte(nil), run...)
	if len(flipGap) > 3 {
		flipGap[3] ^= 0x80 // extend a varint into the following stream
	}
	flipHeader := append([]byte(nil), run...)
	if len(flipHeader) > 2 {
		flipHeader[2] = 0x1F // absurd level in the first block header
	}
	longest := longestRunSeed(tb, 12)
	entryOffset := append([]byte(nil), longest.data...)
	at := restartTableAt(longest.data)
	entryOffset[at] ^= 0x01 // entry 0's offset delta, a one-byte varint
	entryKey := append([]byte(nil), longest.data...)
	_, w := binary.Uvarint(longest.data[at:])
	entryKey[at+w] ^= 0x01 // the shift of entry 0's aligned end-code delta
	return []struct {
		data  []byte
		count uint16
	}{
		{run, count},
		{run[:len(run)/2], count},
		{run, count / 2},
		{flipGap, count},
		{flipHeader, count},
		{nil, 0},
		{make([]byte, 64), 7},
		longest,
		{entryOffset, longest.count},
		{entryKey, longest.count},
	}
}

// restartTableAt returns the offset of a run's restart table: past the
// block count, the dictionary and the table's length.
func restartTableAt(run []byte) int {
	_, at := binary.Uvarint(run)
	at += 1 + int(run[at])
	_, w := binary.Uvarint(run[at:])
	return at + w
}

// longestRunSeed returns the delta-compressed run of the vertex with the
// most blocks in a side×side grid's index, and its block count.
func longestRunSeed(tb testing.TB, side int) struct {
	data  []byte
	count uint16
} {
	tb.Helper()
	g, err := graph.GenerateGrid(side, side)
	if err != nil {
		tb.Fatalf("grid: %v", err)
	}
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	var longest *quadtree.Tree
	for v := 0; v < g.NumVertices(); v++ {
		if t, _ := ix.Tree(nil, graph.VertexID(v)); longest == nil || len(t.Blocks) > len(longest.Blocks) {
			longest = t
		}
	}
	if len(longest.Blocks) <= 2*store.RestartEvery {
		tb.Fatalf("longest run of a %d×%d grid has only %d blocks", side, side, len(longest.Blocks))
	}
	run, err := store.CompressRun(nil, longest.Blocks)
	if err != nil {
		tb.Fatalf("compress: %v", err)
	}
	return struct {
		data  []byte
		count uint16
	}{run, uint16(len(longest.Blocks))}
}

// FuzzPageDecode feeds arbitrary byte streams, block counts, and out-degrees
// to the compressed-run decoder. Error-not-panic, allocation bounded by the
// input length, and any accepted run must satisfy the structural invariants
// the query path relies on AND survive a re-encode/re-decode round trip
// bit-identically — the encoder is canonical, so a decode that cannot be
// reproduced by the writer indicates the decoder accepted garbage. The
// single-block lookup must agree with the decode (checkLookups).
func FuzzPageDecode(f *testing.F) {
	for _, seed := range pageDecodeSeeds(f) {
		f.Add(seed.data, seed.count, uint8(4))
	}
	f.Fuzz(func(t *testing.T, data []byte, count uint16, deg uint8) {
		blocks, minLambda, err := store.DecompressRun(data, int(count), int(deg))
		checkLookups(t, data, int(count), int(deg), blocks, err)
		if err != nil {
			return
		}
		if len(blocks) != int(count) {
			t.Fatalf("accepted %d blocks, extent declared %d", len(blocks), count)
		}
		prevEnd := uint64(0)
		for _, b := range blocks {
			if int(b.Color) >= int(deg) || b.Color < 0 {
				t.Fatalf("accepted block with color %d for out-degree %d", b.Color, deg)
			}
			if uint64(b.Cell.Code) < prevEnd {
				t.Fatal("accepted unsorted blocks")
			}
			prevEnd = uint64(b.Cell.End())
			if float64(b.LamLo) < minLambda {
				t.Fatalf("minLambda %v above block lower bound %v", minLambda, b.LamLo)
			}
		}
		if len(blocks) == 0 {
			return
		}
		reenc, err := store.CompressRun(nil, blocks)
		if err != nil {
			t.Fatalf("accepted run fails to re-encode: %v", err)
		}
		again, minLambda2, err := store.DecompressRun(reenc, int(count), int(deg))
		if err != nil {
			t.Fatalf("re-encoded run fails to decode: %v", err)
		}
		if minLambda2 != minLambda {
			t.Fatalf("minLambda drifted across round trip: %v vs %v", minLambda2, minLambda)
		}
		for i := range blocks {
			if blocks[i] != again[i] {
				t.Fatalf("block %d drifted across round trip: %+v vs %+v", i, blocks[i], again[i])
			}
		}
	})
}

// openPagedSeeds builds seed images for the store opener: a valid image,
// truncations and bit flips of it, magics the opener rejects — the two
// removed formats' and the sharded file's — and two images that open only
// with a network their caller supplies: the valid image with the
// network-less flag set behind a valid superblock CRC, and a real cell
// image, planned without its network section.
func openPagedSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	g, err := graph.GenerateGrid(5, 5)
	if err != nil {
		tb.Fatalf("grid: %v", err)
	}
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := ix.WritePaged(&buf); err != nil {
		tb.Fatalf("write: %v", err)
	}
	valid := buf.Bytes()
	flipHeader := append([]byte(nil), valid...)
	flipHeader[30] ^= 0xFF
	flipPage := append([]byte(nil), valid...)
	flipPage[len(flipPage)-64] ^= 0x01 // inside the last block page / CRC table
	oldMagic := append([]byte(nil), valid...)
	oldMagic[6] = '1' // the removed fixed-width format's magic
	noTables := append([]byte(nil), valid...)
	noTables[6] = '2' // the removed format without restart tables
	sharded := append([]byte(store.ShardedMagic), valid[8:]...)
	// A removed proximity-bounded build: a nonzero radius word behind a
	// valid superblock CRC.
	bounded := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(bounded[24:], math.Float64bits(0.2))
	binary.LittleEndian.PutUint32(bounded[96:], crc32.ChecksumIEEE(bounded[:96]))
	flagged := append([]byte(nil), valid...)
	flagged[12] |= 1 << 1 // the flag word's network-less bit
	binary.LittleEndian.PutUint32(flagged[96:], crc32.ChecksumIEEE(flagged[:96]))
	plan, err := ix.PlanPaged(true)
	if err != nil {
		tb.Fatalf("plan: %v", err)
	}
	var cell bytes.Buffer
	if _, err := plan.WriteTo(&cell); err != nil {
		tb.Fatalf("write: %v", err)
	}
	return [][]byte{
		valid,
		valid[:40],
		valid[:len(valid)/2],
		flipHeader,
		flipPage,
		{},
		[]byte("SILCPG1\x00short"), // the removed fixed-width format
		oldMagic,
		sharded,
		valid[:100],
		[]byte("SILCPG2\x00short"), // the removed format without restart tables
		noTables,
		[]byte("SILCPG3\x00short"),
		bounded,
		flagged,
		cell.Bytes(),
	}
}

// FuzzOpenPaged drives the store opener with arbitrary images. A
// successful open is fully exercised: every vertex's quadtree is decoded
// and looked up at every vertex's code, so lazily-detected page corruption
// also surfaces as errors, never panics. Its checked-in corpus holds whole
// images of the two removed formats, which the opener must reject, beside
// openPagedSeeds, among them an image of the removed proximity-bounded
// build, rejected by its radius word, and two network-less images, which
// open with no network here and so are rejected.
func FuzzOpenPaged(f *testing.F) {
	for _, seed := range openPagedSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := store.Open(bytes.NewReader(data), int64(len(data)), store.WithPoolPages(store.OpenOptions{}, 4))
		if err != nil {
			return
		}
		g := st.Graph()
		for v := 0; v < g.NumVertices(); v++ {
			if _, err := st.Tree(nil, graph.VertexID(v)); err != nil {
				return // corrupt page detected lazily — fine
			}
			for u := 0; u < g.NumVertices(); u++ {
				if _, _, err := st.Lookup(nil, graph.VertexID(v), g.Code(graph.VertexID(u))); err != nil {
					t.Fatalf("vertex %d: a lookup fails on a run its tree decode accepts: %v", v, err)
				}
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpora under
// testdata/fuzz when SILC_GEN_CORPUS=1: FuzzPageDecode's, and FuzzOpenPaged's
// from seed 11 on. FuzzOpenPaged's seeds 0 to 10 are not regenerated: they
// are images of the two removed writers (0 to 6 fixed-width, 7 to 10
// without restart tables), kept to drive the opener's rejection.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("SILC_GEN_CORPUS") == "" {
		t.Skip("set SILC_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	write := func(dir, name, body string) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range pageDecodeSeeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed.data)) + ")\nuint16(" +
			strconv.Itoa(int(seed.count)) + ")\nbyte('\\x04')\n"
		write(filepath.Join("testdata", "fuzz", "FuzzPageDecode"), "seed-"+strconv.Itoa(i), body)
	}
	for i, seed := range openPagedSeeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		write(filepath.Join("testdata", "fuzz", "FuzzOpenPaged"), "seed-"+strconv.Itoa(11+i), body)
	}
}
