package store_test

import (
	"bytes"
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

// checkLookupPass holds the single-block lookup to the whole-run decode of
// the same run. The full pass errors iff decodeErr is set, and on an
// accepted run it decodes every block and returns, for probes inside, at the
// edges of and between the decoded blocks, exactly the block the decoded
// tree finds. On an accepted run the validated lookup — the early exit a
// store takes once the full pass succeeded — must return the same block and
// ok for every probe, decoding no more blocks than the run holds.
//
// index runs the full pass that records the run's restart points and
// returns the validated lookup resuming from them. The pass must fail iff
// decodeErr is set; on an accepted run the lookup resuming from its points
// must return the full pass's block and ok for every probe, decoding
// exactly the blocks from its restart point through the first block ending
// past the probe.
func checkLookupPass(t *testing.T, blocks []quadtree.Block, decodeErr error, lookup func(code geom.Code, validated bool) (quadtree.Block, bool, int, error),
	index func() (func(geom.Code) (quadtree.Block, bool, int, error), error)) {
	t.Helper()
	indexed, err := index()
	if (err != nil) != (decodeErr != nil) {
		t.Fatalf("indexing pass error %v, decode error %v", err, decodeErr)
	}
	probes := []geom.Code{0, 1<<(2*geom.MaxLevel) - 1, 1 << (2 * geom.MaxLevel)}
	for _, b := range blocks {
		probes = append(probes, b.Cell.Code, b.Cell.Code-1, b.Cell.End()-1, b.Cell.End())
	}
	tree := &quadtree.Tree{Blocks: blocks}
	for _, code := range probes {
		got, ok, decoded, err := lookup(code, false)
		if (err != nil) != (decodeErr != nil) {
			t.Fatalf("probe %x: lookup error %v, decode error %v", code, err, decodeErr)
		}
		if decodeErr != nil {
			return // one probe shows the pass fails; the rest would repeat it
		}
		want, wok := tree.Find(code)
		if ok != wok || got != want || decoded != len(blocks) {
			t.Fatalf("probe %x: lookup %+v ok=%v (%d decoded), decoded tree %+v ok=%v (%d blocks)",
				code, got, ok, decoded, want, wok, len(blocks))
		}
		got, ok, decoded, err = lookup(code, true)
		if err != nil || ok != wok || got != want || decoded > len(blocks) {
			t.Fatalf("probe %x: validated lookup %+v ok=%v (%d decoded) err=%v, decoded tree %+v ok=%v (%d blocks)",
				code, got, ok, decoded, err, want, wok, len(blocks))
		}
		got, ok, decoded, err = indexed(code)
		if limit := validatedDecodes(tree, code); err != nil || ok != wok || got != want || int64(decoded) != limit {
			t.Fatalf("probe %x: restart-indexed lookup %+v ok=%v (%d decoded) err=%v, decoded tree %+v ok=%v (%d of %d blocks)",
				code, got, ok, decoded, err, want, wok, limit, len(blocks))
		}
	}
}

// pageDecodeSeeds builds seed inputs for the compressed-run decoder: a real
// delta-compressed vertex run plus hand-mangled variants, and the longest
// run of a 12×12 grid, which has restart points to resume from.
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
		longestRunSeed(tb, 12),
	}
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
// single-block lookup, full, validated and resuming from restart points,
// must agree with the decode (checkLookupPass).
func FuzzPageDecode(f *testing.F) {
	for _, seed := range pageDecodeSeeds(f) {
		f.Add(seed.data, seed.count, uint8(4))
	}
	f.Fuzz(func(t *testing.T, data []byte, count uint16, deg uint8) {
		blocks, minLambda, err := store.DecompressRun(data, int(count), int(deg))
		checkLookupPass(t, blocks, err, func(code geom.Code, validated bool) (quadtree.Block, bool, int, error) {
			return store.LookupRun(data, int(count), int(deg), code, validated)
		}, func() (func(geom.Code) (quadtree.Block, bool, int, error), error) {
			return store.IndexRun(data, int(count), int(deg))
		})
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
// truncations and bit flips of it, and magics the opener rejects — the
// removed fixed-width format's and the sharded file's.
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
	oldMagic[6] = '1' // SILCPG2 -> the removed format's magic
	sharded := append([]byte(store.ShardedMagic), valid[8:]...)
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
		[]byte("SILCPG2\x00short"),
	}
}

// FuzzOpenPaged drives the store opener with arbitrary images. A
// successful open is fully exercised: every vertex's quadtree is
// decoded, so lazily-detected page corruption also surfaces as errors,
// never panics. Its checked-in corpus also holds whole images of the
// removed fixed-width format, which the opener must reject.
func FuzzOpenPaged(f *testing.F) {
	for _, seed := range openPagedSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := store.Open(bytes.NewReader(data), int64(len(data)), store.OpenOptions{CachePages: 4})
		if err != nil {
			return
		}
		n := st.Graph().NumVertices()
		for v := 0; v < n; v++ {
			if _, err := st.Tree(nil, graph.VertexID(v)); err != nil {
				return // corrupt page detected lazily — fine
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates FuzzPageDecode's checked-in seed corpus
// under testdata/fuzz when SILC_GEN_CORPUS=1. FuzzOpenPaged's corpus is
// not regenerated: seeds 0 to 6 are images of the removed fixed-width
// writer, kept to drive the opener's rejection.
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
}
