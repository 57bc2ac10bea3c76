package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"silc/internal/geom"
	"silc/internal/quadtree"
)

// Compression names the encoding of a paged image's runs. Every image is
// delta+varint (CompressionDelta); the type stays only because the benchmark
// module compiles against it (Store.Compression, core.PagedConfig).
type Compression uint8

// CompressionDelta is the delta+varint run encoding, the only one.
const CompressionDelta Compression = 1

// The compressed run layout (one run per vertex with at least one block,
// byte-packed; DESIGN.md §11 documents it normatively):
//
//	uvarint  nblocks            cross-checked against the extent count
//	u8       ncolors            size of the per-run color dictionary (>=1)
//	u8 x ncolors                dictionary, first-appearance order, each < deg
//	per block:
//	  u8     header             bits 0..4 level, bit 5 gap follows,
//	                            bit 6 lamHi == lamLo, bit 7 color changes
//	  uvarint gap               if bit 5: Morton gap to the previous block's
//	                            end, aligned-encoded (value>>2t)<<4 | t
//	  uvarint colorIdx          if bit 7: new dictionary index
//	  uvarint zigzag(dLo)       float32-bit delta of lamLo vs the previous
//	                            block's lamLo (seeded with bits(1.0))
//	  uvarint dHi               if bit 6 clear: bits(lamHi) - bits(lamLo),
//	                            non-negative because 0 <= lamLo <= lamHi
//	                            orders their float bits
//
// Sorted Morton runs make the gap zero for adjacent blocks and a tiny
// aligned multiple of 4^k across holes; ratio bounds of nearby blocks share
// high float bits, so their bit deltas are short varints. The decoder
// reconstructs codes by accumulating gaps, which re-establishes the
// sorted/disjoint invariant for free; everything else is revalidated block
// by block.
const (
	runFlagGap     = 1 << 5
	runFlagHiEqLo  = 1 << 6
	runFlagColor   = 1 << 7
	runLevelMask   = runFlagGap - 1
	lamSeedBits    = 0x3F800000 // float32 bits of 1.0, the ratio floor
	gapShiftMax    = 15         // aligned-gap encoding: at most 15 code-pair shifts
	runMinPerBlock = 2          // header byte + >=1-byte lamLo delta
	runOverhead    = 3          // nblocks varint + ncolors + >=1 dictionary byte
)

// zigzag folds a signed delta into an unsigned varint-friendly value.
func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeGap aligned-encodes a positive Morton gap: gaps are sums of
// level-aligned cell spans, i.e. multiples of 4^t, so shifting the factored
// power of four into the low bits keeps the varint short.
func encodeGap(gap uint64) uint64 {
	t := uint64(bits.TrailingZeros64(gap)) / 2
	if t > gapShiftMax {
		t = gapShiftMax
	}
	return (gap>>(2*t))<<4 | t
}

// decodeGap inverts encodeGap. The shift cannot overflow into the guard
// range: callers bound the reconstructed code right after.
func decodeGap(enc uint64) (uint64, error) {
	t := enc & 0xF
	g := enc >> 4
	if g == 0 {
		return 0, fmt.Errorf("store: zero gap with gap flag set")
	}
	if bits.LeadingZeros64(g) < int(2*t) {
		return 0, fmt.Errorf("store: gap %d<<%d overflows", g, 2*t)
	}
	return g << (2 * t), nil
}

// CompressRun appends the delta+varint encoding of one vertex's sorted
// Morton-block run to dst. The encoder is deterministic, so re-serializing
// a decoded image reproduces it byte for byte. Runs must be non-empty,
// sorted, and carry colors in the disk format's 8-bit width.
func CompressRun(dst []byte, blocks []quadtree.Block) ([]byte, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("store: empty runs are not stored")
	}
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))

	// Per-run color dictionary in first-appearance order: block colors become
	// small indexes, and consecutive blocks sharing a color cost nothing.
	var dictIdx [256]int16
	for i := range dictIdx {
		dictIdx[i] = -1
	}
	dict := make([]byte, 0, 16)
	for i := range blocks {
		c := blocks[i].Color
		if c < 0 || c > 255 {
			return nil, fmt.Errorf("store: block %d color %d exceeds the disk format's 8-bit width", i, c)
		}
		if dictIdx[c] < 0 {
			dictIdx[c] = int16(len(dict))
			dict = append(dict, byte(c))
		}
	}
	if len(dict) > 255 {
		return nil, fmt.Errorf("store: %d distinct colors overflow the dictionary byte", len(dict))
	}
	dst = append(dst, byte(len(dict)))
	dst = append(dst, dict...)

	var prevEnd uint64
	prevLo := int64(lamSeedBits)
	curIdx := int16(0)
	for i := range blocks {
		b := &blocks[i]
		if b.Cell.Level > geom.MaxLevel {
			return nil, fmt.Errorf("store: block %d has level %d beyond %d", i, b.Cell.Level, geom.MaxLevel)
		}
		code := uint64(b.Cell.Code)
		if code < prevEnd {
			return nil, fmt.Errorf("store: blocks not sorted/disjoint at %d", i)
		}
		gap := code - prevEnd
		prevEnd = uint64(b.Cell.End())

		loBits := int64(math.Float32bits(b.LamLo))
		hiBits := int64(math.Float32bits(b.LamHi))
		if hiBits < loBits {
			// Valid ratio bounds are non-negative and ordered, which orders
			// their float bits; anything else never came out of a build.
			return nil, fmt.Errorf("store: block %d has uncompressible ratio bounds [%v, %v]", i, b.LamLo, b.LamHi)
		}

		h := b.Cell.Level
		if gap != 0 {
			h |= runFlagGap
		}
		if hiBits == loBits {
			h |= runFlagHiEqLo
		}
		if dictIdx[b.Color] != curIdx {
			h |= runFlagColor
		}
		dst = append(dst, h)
		if gap != 0 {
			dst = binary.AppendUvarint(dst, encodeGap(gap))
		}
		if h&runFlagColor != 0 {
			curIdx = dictIdx[b.Color]
			dst = binary.AppendUvarint(dst, uint64(curIdx))
		}
		dst = binary.AppendUvarint(dst, zigzag(loBits-prevLo))
		prevLo = loBits
		if h&runFlagHiEqLo == 0 {
			dst = binary.AppendUvarint(dst, uint64(hiBits-loBits))
		}
	}
	return dst, nil
}

// DecompressRun decodes one vertex's compressed run, revalidating every
// structural invariant the query path relies on: cell levels within the
// grid, blocks sorted and disjoint, colors inside the vertex's out-degree,
// ratio bounds ordered and not NaN, and the run must declare the expected
// block count and consume its bytes exactly. It returns the blocks and the
// minimum LamLo (1 for an empty run, matching Tree.MinLambda semantics).
//
// count comes from the validated extent table (counts[v] < n), and the
// header's length guard bounds the allocation by len(data) — a corrupt page
// cannot demand more memory than its own size times a small constant.
func DecompressRun(data []byte, count, deg int) ([]quadtree.Block, float64, error) {
	return decompressRun(nil, data, count, deg)
}

// decompressRun is DecompressRun appending to dst[:0].
func decompressRun(dst []quadtree.Block, data []byte, count, deg int) ([]quadtree.Block, float64, error) {
	d, err := newRunDecoder(data, count, deg)
	if err != nil {
		return nil, 0, err
	}
	if count == 0 {
		return dst[:0], 1, nil
	}
	blocks := slices.Grow(dst[:0], count)[:count]
	minLambda := math.Inf(1)
	for i := range blocks {
		if err := d.next(&blocks[i]); err != nil {
			return nil, 0, err
		}
		if lo := float64(blocks[i].LamLo); lo < minLambda {
			minLambda = lo
		}
	}
	if err := d.finish(); err != nil {
		return nil, 0, err
	}
	return blocks, minLambda, nil
}

// restartEvery is the most blocks a validated lookup of a run decodes.
const restartEvery = 16

// restart is the decoder state in front of block (j+1)·restartEvery of a
// run, its j-th restart point: the offset of the block's header byte, the
// end of the block before it, the ratio bits its delta starts from and the
// dictionary index in force. Two first passes over one run may record its
// points at once; the fields are atomic, and both store the same values.
type restart struct {
	at, prevEnd, prevLo, curIdx atomic.Uint32
}

// restartPoints is how many restart points a run of count blocks has.
func restartPoints(count int) int { return max(count-1, 0) / restartEvery }

// lookupRun is the single-block counterpart of DecompressRun: it returns the
// block whose cell contains code (ok false when none does) and how many
// blocks it decoded. It allocates nothing.
//
// Unless validated, it is one pass of the same decoder over the whole run —
// every check, the trailing-bytes check included, so it errors exactly when
// DecompressRun does — recording the run's restart points into points. A
// validated run passed such a pass (the caller vouches its bytes are
// unchanged since), and points are the ones it recorded, or nil: the lookup
// resumes from the last point in front of the first block ending past code,
// still checks every block it decodes, and stops at that block, which
// either contains code or proves no block does.
func lookupRun(data []byte, count, deg int, code geom.Code, points []restart, validated bool) (found quadtree.Block, ok bool, decoded int, err error) {
	d, err := newRunDecoder(data, count, deg)
	if err != nil {
		return quadtree.Block{}, false, 0, err
	}
	first := 0
	if validated {
		first, points = d.resume(points, code), nil // read the points, record none
	}
	var b quadtree.Block
	for i := first; i < count; i++ {
		d.record(points)
		if err := d.next(&b); err != nil {
			return quadtree.Block{}, false, 0, err
		}
		if !ok && b.Cell.ContainsCode(code) {
			found, ok = b, true
		}
		if validated && b.Cell.End() > code {
			return found, ok, i + 1 - first, nil
		}
	}
	if err := d.finish(); err != nil {
		return quadtree.Block{}, false, 0, err
	}
	return found, ok, count - first, nil
}

// checkRunLength reports whether bytes can be the length of a run of count
// blocks (of a whole block section, too: sections are runs laid end to end).
func checkRunLength(count, bytes int64) error {
	if (count == 0 && bytes != 0) || (count > 0 && bytes < runMinPerBlock*count+runOverhead) {
		return fmt.Errorf("%d run bytes cannot hold %d blocks", bytes, count)
	}
	return nil
}

// runDecoder walks one compressed run block by block. newRunDecoder checks
// the run header; next decodes and validates one block; finish checks the
// run was consumed exactly. DecompressRun and lookupRun (both of its modes)
// drive it, so every check is written once.
type runDecoder struct {
	data    []byte
	at      int
	dict    []byte
	i       int // index of the next block
	prevEnd uint64
	prevLo  int64
	curIdx  int
}

// newRunDecoder validates the run's length, declared block count and color
// dictionary, and positions the decoder on the first block.
func newRunDecoder(data []byte, count, deg int) (runDecoder, error) {
	if count == 0 {
		if len(data) != 0 {
			return runDecoder{}, fmt.Errorf("store: %d bytes for an empty run", len(data))
		}
		return runDecoder{data: data}, nil
	}
	if count < 0 || len(data) < runMinPerBlock*count+runOverhead {
		return runDecoder{}, fmt.Errorf("store: run of %d bytes cannot hold %d blocks", len(data), count)
	}
	nb, at := binary.Uvarint(data)
	if at <= 0 || nb != uint64(count) {
		return runDecoder{}, fmt.Errorf("store: run declares %d blocks, extent records %d", nb, count)
	}
	ncolors := int(data[at])
	at++
	if ncolors == 0 || ncolors > deg || len(data)-at < ncolors {
		return runDecoder{}, fmt.Errorf("store: invalid color dictionary of %d entries for out-degree %d", ncolors, deg)
	}
	dict := data[at : at+ncolors]
	at += ncolors
	for _, c := range dict {
		if int(c) >= deg {
			return runDecoder{}, fmt.Errorf("store: dictionary color %d exceeds out-degree %d", c, deg)
		}
	}
	return runDecoder{data: data, at: at, dict: dict, prevLo: lamSeedBits}, nil
}

// shortUvarint decodes a varint of one to three bytes at the start of p
// exactly as binary.Uvarint would. It returns w == 0 — leaving the varint to
// binary.Uvarint — when the varint is longer or p is shorter than three
// bytes. Gaps, color indexes and ratio deltas are nearly always this short,
// and unlike the library call the function inlines into the block loop.
func shortUvarint(p []byte) (v uint64, w int) {
	if len(p) >= 3 {
		b0 := uint64(p[0])
		if b0 < 0x80 {
			return b0, 1
		}
		b1 := uint64(p[1])
		if b1 < 0x80 {
			return b0&0x7f | b1<<7, 2
		}
		if b2 := uint64(p[2]); b2 < 0x80 {
			return b0&0x7f | (b1&0x7f)<<7 | b2<<14, 3
		}
	}
	return 0, 0
}

// next decodes and validates the run's next block into b. Each varint read
// is shortUvarint with binary.Uvarint behind it; w <= 0 means truncated or
// overlong, exactly as for the library call alone.
func (d *runDecoder) next(b *quadtree.Block) error {
	i, data, at := d.i, d.data, d.at
	d.i++
	if at >= len(data) {
		return fmt.Errorf("store: run truncated at block %d", i)
	}
	h := data[at]
	at++
	b.Cell.Level = h & runLevelMask
	if b.Cell.Level > geom.MaxLevel {
		return fmt.Errorf("store: block %d has level %d beyond %d", i, b.Cell.Level, geom.MaxLevel)
	}
	code := d.prevEnd
	if h&runFlagGap != 0 {
		enc, w := shortUvarint(data[at:])
		if w == 0 {
			enc, w = binary.Uvarint(data[at:])
		}
		if w <= 0 {
			return fmt.Errorf("store: block %d gap truncated", i)
		}
		at += w
		gap, err := decodeGap(enc)
		if err != nil {
			return fmt.Errorf("store: block %d: %w", i, err)
		}
		if gap > 1<<(2*geom.MaxLevel) {
			return fmt.Errorf("store: block %d gap %d beyond the grid", i, gap)
		}
		code += gap
	}
	if code >= 1<<(2*geom.MaxLevel) {
		return fmt.Errorf("store: block %d code %x beyond the grid", i, code)
	}
	b.Cell.Code = geom.Code(code)
	// Span is a power of four, so alignment is a mask test, not a division.
	if code&(b.Cell.Span()-1) != 0 {
		return fmt.Errorf("store: block %d code %x not aligned to level %d", i, code, b.Cell.Level)
	}
	d.prevEnd = uint64(b.Cell.End())
	if h&runFlagColor != 0 {
		idx, w := shortUvarint(data[at:])
		if w == 0 {
			idx, w = binary.Uvarint(data[at:])
		}
		if w <= 0 || idx >= uint64(len(d.dict)) {
			return fmt.Errorf("store: block %d color index out of dictionary", i)
		}
		at += w
		d.curIdx = int(idx)
	}
	b.Color = int32(d.dict[d.curIdx])
	dLo, w := shortUvarint(data[at:])
	if w == 0 {
		dLo, w = binary.Uvarint(data[at:])
	}
	if w <= 0 {
		return fmt.Errorf("store: block %d ratio delta truncated", i)
	}
	at += w
	loBits := d.prevLo + unzigzag(dLo)
	if loBits < 0 || loBits > math.MaxUint32 {
		return fmt.Errorf("store: block %d ratio bits out of range", i)
	}
	d.prevLo = loBits
	hiBits := loBits
	if h&runFlagHiEqLo == 0 {
		dHi, w := shortUvarint(data[at:])
		if w == 0 {
			dHi, w = binary.Uvarint(data[at:])
		}
		if w <= 0 {
			return fmt.Errorf("store: block %d ratio span truncated", i)
		}
		at += w
		hiBits = loBits + int64(dHi&math.MaxUint32) // mask keeps the sum in int64 range
		if dHi > math.MaxUint32 || hiBits > math.MaxUint32 {
			return fmt.Errorf("store: block %d ratio bits out of range", i)
		}
	}
	d.at = at
	b.LamLo = math.Float32frombits(uint32(loBits))
	b.LamHi = math.Float32frombits(uint32(hiBits))
	if lo, hi := float64(b.LamLo), float64(b.LamHi); math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return fmt.Errorf("store: block %d has invalid ratio bounds [%v, %v]", i, lo, hi)
	}
	return nil
}

// record stores the decoder state into the restart point in front of the
// next block, when points has one there.
func (d *runDecoder) record(points []restart) {
	if j := d.i/restartEvery - 1; d.i%restartEvery == 0 && j >= 0 && j < len(points) {
		p := &points[j]
		p.at.Store(uint32(d.at))
		p.prevEnd.Store(uint32(d.prevEnd))
		p.prevLo.Store(uint32(d.prevLo))
		p.curIdx.Store(uint32(d.curIdx))
	}
}

// resume positions the decoder on the last restart point whose preceding
// blocks all end at or before code and returns its block index (0, the
// run's start, when there is none).
func (d *runDecoder) resume(points []restart, code geom.Code) int {
	j := sort.Search(len(points), func(j int) bool { return geom.Code(points[j].prevEnd.Load()) > code })
	if j == 0 {
		return 0
	}
	p := &points[j-1]
	d.i = j * restartEvery
	d.at, d.prevEnd, d.prevLo, d.curIdx = int(p.at.Load()), uint64(p.prevEnd.Load()), int64(p.prevLo.Load()), int(p.curIdx.Load())
	return d.i
}

// finish checks that the blocks consumed the run exactly.
func (d *runDecoder) finish() error {
	if d.at != len(d.data) {
		return fmt.Errorf("store: %d trailing bytes after %d blocks", len(d.data)-d.at, d.i)
	}
	return nil
}
