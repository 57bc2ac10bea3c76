package store_test

import (
	"bytes"
	"math"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
	"silc/internal/store"
)

// mustCell builds a level-aligned quadtree cell.
func mustCell(t *testing.T, code uint64, level uint8) geom.Cell {
	t.Helper()
	c := geom.Cell{Code: geom.Code(code), Level: level}
	if code%c.Span() != 0 {
		t.Fatalf("cell %d not aligned to level %d", code, level)
	}
	return c
}

// TestCompressRunRoundTrip compresses every vertex run of a real index and
// checks the decoded blocks are bit-identical — codes, levels, colors, and
// the exact float32 ratio bounds — and that the compression actually pays:
// the delta+varint streams must undercut the 16-byte fixed entries by at
// least 2x in aggregate, the tentpole's storage claim at codec level.
func TestCompressRunRoundTrip(t *testing.T) {
	g, ix := buildTestIndex(t, 16, 16)
	img := writeImage(t, ix)
	st, err := store.Open(bytes.NewReader(img), int64(len(img)), store.OpenOptions{CacheFraction: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var rawBytes, compBytes int64
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		tree, err := st.Tree(nil, vid)
		if err != nil {
			t.Fatalf("tree %d: %v", v, err)
		}
		if len(tree.Blocks) == 0 {
			continue
		}
		enc, err := store.CompressRun(nil, tree.Blocks)
		if err != nil {
			t.Fatalf("compress %d: %v", v, err)
		}
		rawBytes += int64(len(tree.Blocks)) * quadtree.EncodedSizeBytes
		compBytes += int64(len(enc))
		dec, minLambda, err := store.DecompressRun(enc, len(tree.Blocks), g.Degree(vid))
		if err != nil {
			t.Fatalf("decompress %d: %v", v, err)
		}
		if len(dec) != len(tree.Blocks) {
			t.Fatalf("vertex %d: %d blocks decoded, want %d", v, len(dec), len(tree.Blocks))
		}
		for i := range dec {
			a, b := &dec[i], &tree.Blocks[i]
			if a.Cell != b.Cell || a.Color != b.Color ||
				math.Float32bits(a.LamLo) != math.Float32bits(b.LamLo) ||
				math.Float32bits(a.LamHi) != math.Float32bits(b.LamHi) {
				t.Fatalf("vertex %d block %d: decoded %+v, want %+v", v, i, *a, *b)
			}
		}
		if minLambda != tree.MinLambda {
			t.Fatalf("vertex %d: MinLambda %v, want %v", v, minLambda, tree.MinLambda)
		}
	}
	ratio := float64(rawBytes) / float64(compBytes)
	t.Logf("block streams: %d raw -> %d compressed bytes (%.2fx, %.1f bytes/block)",
		rawBytes, compBytes, ratio, float64(compBytes)*16/float64(rawBytes))
	if ratio < 2 {
		t.Fatalf("codec compresses blocks only %.2fx, tentpole requires >=2x", ratio)
	}
}

// TestDecompressRunRejectsCorruption mangles valid runs every which way and
// checks the decoder reports an error rather than panicking or fabricating
// blocks; so must a lookup that decodes to the run's end, read whole or a
// few bytes at a time.
func TestDecompressRunRejectsCorruption(t *testing.T) {
	blocks := []quadtree.Block{
		{Cell: mustCell(t, 0, 14), Color: 0, LamLo: 1.0, LamHi: 1.25},
		{Cell: mustCell(t, 16, 14), Color: 1, LamLo: 1.1, LamHi: 1.1},
		{Cell: mustCell(t, 64, 13), Color: 0, LamLo: 1.3, LamHi: 2.5},
	}
	enc, err := store.CompressRun(nil, blocks)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	const deg = 2
	if _, _, err := store.DecompressRun(enc, len(blocks), deg); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	// The encoder checks neither alignment nor NaN, so it writes these
	// one-block runs for the decoder to reject.
	compress := func(b quadtree.Block) []byte {
		run, err := store.CompressRun(nil, []quadtree.Block{b})
		if err != nil {
			t.Fatalf("compress %+v: %v", b, err)
		}
		return run
	}
	nan := math.Float32frombits(0x7FC00000)
	misaligned := compress(quadtree.Block{Cell: geom.Cell{Code: 1, Level: 14}, LamLo: 1, LamHi: 1})
	nanBounds := compress(quadtree.Block{Cell: mustCell(t, 0, 14), LamLo: nan, LamHi: nan})
	deepLevel := append([]byte{}, enc...)
	deepLevel[5] = deepLevel[5]&^0x1F | (geom.MaxLevel + 1) // first block's header byte
	// past every block: a lookup of it decodes the whole run
	const farProbe = 1<<(2*geom.MaxLevel) - 1

	cases := []struct {
		name  string
		data  []byte
		count int
		deg   int
	}{
		{"truncated", enc[:len(enc)-1], 3, deg},
		{"trailing garbage", append(append([]byte{}, enc...), 0), 3, deg},
		{"count mismatch", enc, 2, deg},
		{"count exceeds data", []byte{1, 2, 3}, 1 << 20, deg},
		{"negative count", enc, -1, deg},
		{"empty run with data", enc, 0, deg},
		{"zero dictionary", append([]byte{3, 0}, enc[2:]...), 3, deg},
		{"color beyond degree", enc, 3, 1},
		{"level beyond grid", deepLevel, 3, deg},
		{"misaligned code", misaligned, 1, deg},
		{"NaN ratio bounds", nanBounds, 1, deg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := store.DecompressRun(tc.data, tc.count, tc.deg); err == nil {
				t.Fatal("corrupted run decoded without error")
			}
			for _, chunk := range []int{0, 3} {
				if _, _, _, err := store.LookupRun(tc.data, tc.count, tc.deg, farProbe, chunk); err == nil {
					t.Fatalf("corrupted run passed a lookup to its end without error (chunk %d)", chunk)
				}
			}
		})
	}

	// Every single-byte mangle must either error out or still decode into a
	// structurally valid run — never panic, never overrun. A lookup must
	// succeed on every run the decode accepts and fail on every other run
	// it decodes to the end: one whose early block already ends past the
	// probe never sees the later mangle, and need not.
	for i := range enc {
		for _, delta := range []byte{0x01, 0x80, 0xFF} {
			bad := append([]byte{}, enc...)
			bad[i] ^= delta
			dec, _, err := store.DecompressRun(bad, len(blocks), deg)
			for _, chunk := range []int{0, 3} {
				_, _, decoded, lerr := store.LookupRun(bad, len(blocks), deg, farProbe, chunk)
				if (err == nil && lerr != nil) || (err != nil && lerr == nil && decoded == len(blocks)) {
					t.Fatalf("mangle at %d: lookup error %v after %d blocks (chunk %d), decode error %v", i, lerr, decoded, chunk, err)
				}
			}
			if err != nil {
				continue
			}
			var prevEnd uint64
			for j := range dec {
				b := &dec[j]
				if b.Cell.Level > 16 || uint64(b.Cell.Code) < prevEnd || int(b.Color) >= deg {
					t.Fatalf("mangle at %d: invariant-breaking block %d: %+v", i, j, *b)
				}
				prevEnd = uint64(b.Cell.End())
			}
		}
	}
}

// TestCompressRunRejectsBadInput covers the writer-side guards.
func TestCompressRunRejectsBadInput(t *testing.T) {
	if _, err := store.CompressRun(nil, nil); err == nil {
		t.Fatal("empty run compressed without error")
	}
	unsorted := []quadtree.Block{
		{Cell: mustCell(t, 64, 13), LamLo: 1, LamHi: 1},
		{Cell: mustCell(t, 0, 14), LamLo: 1, LamHi: 1},
	}
	if _, err := store.CompressRun(nil, unsorted); err == nil {
		t.Fatal("unsorted run compressed without error")
	}
	wide := []quadtree.Block{{Cell: mustCell(t, 0, 14), Color: 300, LamLo: 1, LamHi: 1}}
	if _, err := store.CompressRun(nil, wide); err == nil {
		t.Fatal("9-bit color compressed without error")
	}
}
