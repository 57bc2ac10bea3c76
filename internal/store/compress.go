package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"silc/internal/geom"
	"silc/internal/quadtree"
)

// Compression names the encoding of a paged image's runs. Every image is
// delta+varint (CompressionDelta); the type stays only because the benchmark
// module compiles against it (Store.Compression, core.PagedConfig).
type Compression uint8

// CompressionDelta is the delta+varint run encoding, the only one.
const CompressionDelta Compression = 1

// The run layout (one run per vertex with at least one block, byte-packed;
// DESIGN.md §11 documents it normatively): uvarint block count, u8
// dictionary size, the dictionary (colors in first-appearance order),
// uvarint restart table length, the restart table, then the blocks. Per
// block a header byte (bits 0..4 level, bit 5 a gap follows, bit 6 lamHi ==
// lamLo, bit 7 the color changes), then as flagged an aligned-encoded Morton
// gap to the previous block's end, a dictionary index, the zigzag delta of
// lamLo's float bits against the previous block's, and bits(lamHi) −
// bits(lamLo). Every block past the first whose index is a multiple of
// restartEvery is a restart block, coded as block 0 is — against runStart —
// and the table holds, per restart block, its offset from block 0 and the
// end code of the block before it, each as a delta against the previous
// entry's, the end code aligned-encoded as a gap.
//
// The decoder rebuilds codes by accumulating gaps, which re-establishes
// the sorted/disjoint invariant for free, and checks everything else block
// by block; a lookup starts at the last restart entry at or before its
// probe and decodes at most restartEvery blocks.
const (
	runFlagGap     = 1 << 5
	runFlagHiEqLo  = 1 << 6
	runFlagColor   = 1 << 7
	runLevelMask   = runFlagGap - 1
	lamSeedBits    = 0x3F800000 // float32 bits of 1.0, the ratio floor
	gapShiftMax    = 15         // aligned-gap encoding: at most 15 code-pair shifts
	runMinPerBlock = 2          // header byte + >=1-byte lamLo delta
	runOverhead    = 4          // nblocks + ncolors + >=1 dictionary byte + tableBytes
	restartEvery   = 16         // blocks between two restart entries: the most a lookup decodes
	restartMinSize = 2          // bytes of the shortest restart entry
	gridCodes      = 1 << (2 * geom.MaxLevel)
)

// errShort reports a run's head or block running past the bytes at hand,
// or a varint overflowing 64 bits. A lookup reading a run page by page
// reads the next page and tries again; at the run's end it is the error.
var errShort = errors.New("store: run truncated or a varint overlong")

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

// decodeGap inverts encodeGap; ok is false for a zero gap or one whose
// shift overflows 64 bits. Callers bound the gap right after.
func decodeGap(enc uint64) (gap uint64, ok bool) {
	shift, g := 2*(enc&0xF), enc>>4
	return g << shift, g != 0 && bits.LeadingZeros64(g) >= int(shift)
}

// CompressRun appends the delta+varint encoding of one vertex's sorted
// Morton-block run, restart table included, to dst. The encoder is
// deterministic, so re-serializing a decoded image reproduces it byte for
// byte. Runs must be non-empty, sorted, and carry colors in the disk
// format's 8-bit width.
func CompressRun(dst []byte, blocks []quadtree.Block) ([]byte, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("store: empty runs are not stored")
	}
	// Per-run color dictionary in first-appearance order: block colors become
	// small indexes, and consecutive blocks sharing a color cost nothing.
	var dictIdx [256]int
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
			dictIdx[c] = len(dict)
			dict = append(dict, byte(c))
		}
	}
	if len(dict) > 255 {
		return nil, fmt.Errorf("store: %d distinct colors overflow the dictionary byte", len(dict))
	}

	// The blocks go to their own stream first: the restart table, which
	// precedes them, records offsets into it.
	var stream, table []byte
	st, entry := runStart, runStart // the state in front of block i; the last entry
	for i := range blocks {
		if i > 0 && i%restartEvery == 0 {
			table = binary.AppendUvarint(table, uint64(st.at-entry.at))
			table = binary.AppendUvarint(table, encodeGap(st.prevEnd-entry.prevEnd))
			st.prevLo, st.curIdx = runStart.prevLo, runStart.curIdx
			entry = st
		}
		b := &blocks[i]
		if b.Cell.Level > geom.MaxLevel {
			return nil, fmt.Errorf("store: block %d has level %d beyond %d", i, b.Cell.Level, geom.MaxLevel)
		}
		code := uint64(b.Cell.Code)
		if code < st.prevEnd {
			return nil, fmt.Errorf("store: blocks not sorted/disjoint at %d", i)
		}
		gap := code - st.prevEnd

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
		if dictIdx[b.Color] != st.curIdx {
			h |= runFlagColor
		}
		stream = append(stream, h)
		if gap != 0 {
			stream = binary.AppendUvarint(stream, encodeGap(gap))
		}
		if h&runFlagColor != 0 {
			st.curIdx = dictIdx[b.Color]
			stream = binary.AppendUvarint(stream, uint64(st.curIdx))
		}
		stream = binary.AppendUvarint(stream, zigzag(loBits-st.prevLo))
		if h&runFlagHiEqLo == 0 {
			stream = binary.AppendUvarint(stream, uint64(hiBits-loBits))
		}
		st = restart{at: len(stream), prevEnd: uint64(b.Cell.End()), prevLo: loBits, curIdx: st.curIdx}
	}
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	dst = append(dst, byte(len(dict)))
	dst = append(dst, dict...)
	dst = binary.AppendUvarint(dst, uint64(len(table)))
	dst = append(dst, table...)
	return append(dst, stream...), nil
}

// DecompressRun decodes one vertex's compressed run, checking every
// invariant the query path relies on: levels within the grid, blocks sorted
// and disjoint, colors inside the vertex's out-degree, ratio bounds ordered
// and not NaN, every restart entry agreeing with the run, the declared
// block count and exact byte consumption. It returns the blocks and the
// minimum LamLo (1 for an empty run, as Tree.MinLambda). The length guard
// bounds the allocation by len(data).
func DecompressRun(data []byte, count, deg int) ([]quadtree.Block, float64, error) {
	return decompressRun(nil, data, count, deg)
}

func decompressRun(dst []quadtree.Block, data []byte, count, deg int) ([]quadtree.Block, float64, error) {
	var h runHead
	if err := h.parse(data, len(data), count, deg); err != nil {
		return nil, 0, err
	}
	if count == 0 {
		return dst[:0], 1, nil
	}
	d := runDecoder{restart: runStart, data: data[h.blocks:], dict: h.dict}
	blocks := slices.Grow(dst[:0], count)[:count]
	minLambda := math.Inf(1)
	for i := range blocks {
		if i > 0 && i%restartEvery == 0 {
			if err := h.next(); err != nil {
				return nil, 0, err
			}
			if err := d.restartAt(h.last); err != nil {
				return nil, 0, err
			}
		}
		if err := d.next(&blocks[i]); err != nil {
			return nil, 0, err
		}
		if lo := float64(blocks[i].LamLo); lo < minLambda {
			minLambda = lo
		}
	}
	if err := d.finish(len(data) - h.blocks); err != nil {
		return nil, 0, err
	}
	return blocks, minLambda, nil
}

// lookupRun is the single-block counterpart of DecompressRun: it returns
// the block of the run r reads whose cell contains code (ok false when none
// does) and how many blocks it decoded, allocating nothing. It reads the
// header and the restart table up to the first entry ending past code,
// then decodes from the entry before it (or block 0) to the first block
// ending past code — at most restartEvery blocks, every one checked — and
// asks r only for the bytes it decodes. Decoding up to the next entry
// checks the entry; decoding to the run's end checks the run ends there.
func lookupRun(r *runReader, count, deg int, code geom.Code) (found quadtree.Block, ok bool, decoded int, err error) {
	size := len(r.run)
	run, err := r.read(0, 1)
	var h runHead
	for err == nil {
		if err = h.parse(run, size, count, deg); err != errShort || len(run) == size {
			break
		}
		run, err = r.read(0, len(run)+1) // the head runs onto the next page
	}
	if err != nil {
		return quadtree.Block{}, false, 0, err
	}
	from, first := runStart, 0
	var next restart // the entry after from
	stop := count    // and its block
	for h.j < h.n {
		if err := h.next(); err != nil {
			return quadtree.Block{}, false, 0, err
		}
		if h.last.prevEnd > uint64(code) {
			next, stop = h.last, h.j*restartEvery
			break
		}
		from, first = h.last, h.j*restartEvery
	}

	if run, err = r.read(h.blocks+from.at, h.blocks+from.at+1); err != nil {
		return quadtree.Block{}, false, 0, err
	}
	d := runDecoder{restart: from, data: run[h.blocks:], dict: h.dict, i: first}
	var b quadtree.Block
	for d.i < count {
		if d.i == stop {
			if err := d.restartAt(next); err != nil {
				return quadtree.Block{}, false, 0, err
			}
		}
		if err := d.next(&b); err != nil {
			if err != errShort || len(run) == size {
				return quadtree.Block{}, false, 0, err
			}
			// The block runs onto a page not read yet: read it and decode
			// the block again (next left d as it was).
			if run, err = r.read(h.blocks+d.at, len(run)+1); err != nil {
				return quadtree.Block{}, false, 0, err
			}
			d.data = run[h.blocks:]
			continue
		}
		if b.Cell.End() > code {
			ok = b.Cell.ContainsCode(code)
			break
		}
	}
	if d.i == count {
		if err := d.finish(size - h.blocks); err != nil {
			return quadtree.Block{}, false, 0, err
		}
	}
	if ok {
		found = b
	}
	return found, ok, d.i - first, nil
}

// checkRunLength reports whether bytes can be the length of a run of count
// blocks (of a whole block section, too: sections are runs laid end to end).
func checkRunLength(count, bytes int64) error {
	if (count == 0 && bytes != 0) || (count > 0 && bytes < runMinPerBlock*count+runOverhead) {
		return fmt.Errorf("%d run bytes cannot hold %d blocks", bytes, count)
	}
	return nil
}

// runHead is the head of a run — its dictionary, the offset of its first
// block — and a reader of its restart table, which checks each entry it
// reads: offsets and end codes strictly increase inside the block stream
// and the grid, and the last entry ends the table.
type runHead struct {
	dict   []byte
	blocks int
	table  []byte
	at     int     // the next entry's offset in table
	n, j   int     // entries; entries read
	last   restart // the state the last entry read restarts from (runStart before the first)
	size   int     // bytes of the block stream
}

// parse checks the head of a run of count blocks and size bytes — block
// count, dictionary, table length — in data, a prefix of the run that must
// hold it, and positions the table reader on the first entry.
func (h *runHead) parse(data []byte, size, count, deg int) error {
	h.last = runStart
	if count == 0 && size == 0 {
		return nil
	}
	if count <= 0 || size < runMinPerBlock*count+runOverhead {
		return fmt.Errorf("store: run of %d bytes cannot hold %d blocks", size, count)
	}
	nb, at := binary.Uvarint(data)
	if at <= 0 || at == len(data) {
		return errShort
	}
	if nb != uint64(count) {
		return fmt.Errorf("store: run declares %d blocks, extent records %d", nb, count)
	}
	ncolors := int(data[at])
	at++
	if ncolors == 0 || ncolors > deg {
		return fmt.Errorf("store: invalid color dictionary of %d entries for out-degree %d", ncolors, deg)
	}
	if len(data)-at < ncolors {
		return errShort
	}
	dict := data[at : at+ncolors]
	at += ncolors
	for _, c := range dict {
		if int(c) >= deg {
			return fmt.Errorf("store: dictionary color %d exceeds out-degree %d", c, deg)
		}
	}
	tableBytes, w := binary.Uvarint(data[at:])
	if w <= 0 {
		return errShort
	}
	at += w
	// The table holds restartMinSize bytes or more per entry, and leaves the
	// blocks their minimum bytes.
	points := (count - 1) / restartEvery
	if room := size - at - runMinPerBlock*count; room < 0 || tableBytes > uint64(room) || tableBytes < uint64(restartMinSize*points) || (points == 0 && tableBytes != 0) {
		return fmt.Errorf("store: restart table of %d bytes for %d entries in a run of %d bytes", tableBytes, points, size)
	}
	blocks := at + int(tableBytes)
	if len(data) < blocks {
		return errShort
	}
	h.dict, h.blocks, h.table, h.n, h.size = dict, blocks, data[at:blocks], points, size-blocks
	return nil
}

// restart is the decoder state in front of a block: the offset of its
// header byte from the run's first block, the end of the block before it,
// the ratio bits its delta starts from and the dictionary index in force.
// In front of a restart block it is its entry's offset and end code with
// runStart's ratio bits and index.
type restart struct {
	at      int
	prevEnd uint64
	prevLo  int64
	curIdx  int
}

// runStart is the decoder state in front of a run's first block.
var runStart = restart{prevLo: lamSeedBits}

// next reads entry j of the restart table into h.last and checks it.
func (h *runHead) next() error {
	keys, at := h.table, h.at
	dAt, w0 := shortUvarint(keys[at:])
	if w0 == 0 {
		dAt, w0 = binary.Uvarint(keys[at:])
	}
	at += max(w0, 0)
	enc, w1 := shortUvarint(keys[at:])
	if w1 == 0 {
		enc, w1 = binary.Uvarint(keys[at:])
	}
	if w0 <= 0 || w1 <= 0 {
		return fmt.Errorf("store: restart entry %d runs past the table", h.j)
	}
	h.at = at + w1
	p := &h.last
	dEnd, ok := decodeGap(enc)
	switch {
	case dAt == 0 || dAt >= uint64(h.size-p.at):
		return fmt.Errorf("store: restart entry %d offset %d+%d outside the %d-byte block stream", h.j, p.at, dAt, h.size)
	case !ok || dEnd >= gridCodes-p.prevEnd:
		return fmt.Errorf("store: restart entry %d end code %x+(%x aligned) not increasing inside the grid", h.j, p.prevEnd, enc)
	}
	p.at += int(dAt)
	p.prevEnd += dEnd
	h.j++
	if h.j == h.n && h.at != len(h.table) {
		return fmt.Errorf("store: %d bytes after the %d restart entries", len(h.table)-h.at, h.n)
	}
	return nil
}

// runDecoder walks a run's block stream from a restart state: next decodes
// and checks one block, restartAt checks the state against a restart entry
// and restarts from it, finish checks the stream was consumed exactly.
// DecompressRun and lookupRun drive it, so every check is written once.
type runDecoder struct {
	restart        // the state in front of block i
	data    []byte // the block stream, or a prefix of it
	dict    []byte
	i       int // index of the next block
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

// next decodes and checks the next block into b; each varint read is
// shortUvarint with binary.Uvarint behind it. On an error it leaves d and
// b as they were, so on errShort a caller can extend d.data and call again.
func (d *runDecoder) next(b *quadtree.Block) error {
	i, data, at := d.i, d.data, d.at
	if at >= len(data) {
		return errShort
	}
	h := data[at]
	at++
	cell := geom.Cell{Level: h & runLevelMask}
	if cell.Level > geom.MaxLevel {
		return fmt.Errorf("store: block %d has level %d beyond %d", i, cell.Level, geom.MaxLevel)
	}
	code := d.prevEnd
	if h&runFlagGap != 0 {
		enc, w := shortUvarint(data[at:])
		if w == 0 {
			enc, w = binary.Uvarint(data[at:])
		}
		if w <= 0 {
			return errShort
		}
		at += w
		gap, ok := decodeGap(enc)
		if !ok {
			return fmt.Errorf("store: block %d gap %x is zero or overflows", i, enc)
		}
		if gap > gridCodes {
			return fmt.Errorf("store: block %d gap %d beyond the grid", i, gap)
		}
		code += gap
	}
	if code >= gridCodes {
		return fmt.Errorf("store: block %d code %x beyond the grid", i, code)
	}
	cell.Code = geom.Code(code)
	// Span is a power of four, so alignment is a mask test, not a division.
	if code&(cell.Span()-1) != 0 {
		return fmt.Errorf("store: block %d code %x not aligned to level %d", i, code, cell.Level)
	}
	curIdx := d.curIdx
	if h&runFlagColor != 0 {
		idx, w := shortUvarint(data[at:])
		if w == 0 {
			idx, w = binary.Uvarint(data[at:])
		}
		if w <= 0 {
			return errShort
		}
		if idx >= uint64(len(d.dict)) {
			return fmt.Errorf("store: block %d color index out of dictionary", i)
		}
		at += w
		curIdx = int(idx)
	}
	dLo, w := shortUvarint(data[at:])
	if w == 0 {
		dLo, w = binary.Uvarint(data[at:])
	}
	if w <= 0 {
		return errShort
	}
	at += w
	loBits := d.prevLo + unzigzag(dLo)
	if loBits < 0 || loBits > math.MaxUint32 {
		return fmt.Errorf("store: block %d ratio bits out of range", i)
	}
	hiBits := loBits
	if h&runFlagHiEqLo == 0 {
		dHi, w := shortUvarint(data[at:])
		if w == 0 {
			dHi, w = binary.Uvarint(data[at:])
		}
		if w <= 0 {
			return errShort
		}
		at += w
		hiBits = loBits + int64(dHi&math.MaxUint32) // mask keeps the sum in int64 range
		if dHi > math.MaxUint32 || hiBits > math.MaxUint32 {
			return fmt.Errorf("store: block %d ratio bits out of range", i)
		}
	}
	lamLo, lamHi := math.Float32frombits(uint32(loBits)), math.Float32frombits(uint32(hiBits))
	if lo, hi := float64(lamLo), float64(lamHi); math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return fmt.Errorf("store: block %d has invalid ratio bounds [%v, %v]", i, lo, hi)
	}
	*b = quadtree.Block{Cell: cell, Color: int32(d.dict[curIdx]), LamLo: lamLo, LamHi: lamHi}
	d.restart = restart{at: at, prevEnd: uint64(cell.End()), prevLo: loBits, curIdx: curIdx}
	d.i++
	return nil
}

// restartAt checks that the offset and end code in front of block i, a
// restart block, equal those of e, its entry, and restarts the decoder
// from e.
func (d *runDecoder) restartAt(e restart) error {
	if d.at != e.at || d.prevEnd != e.prevEnd {
		return fmt.Errorf("store: restart entry %d (offset %d, end %x) disagrees with the run (offset %d, end %x) in front of block %d",
			d.i/restartEvery-1, e.at, e.prevEnd, d.at, d.prevEnd, d.i)
	}
	d.restart = e
	return nil
}

// finish checks that the blocks consumed the size-byte stream exactly.
func (d *runDecoder) finish(size int) error {
	if d.at != size {
		return fmt.Errorf("store: %d trailing bytes after %d blocks", size-d.at, d.i)
	}
	return nil
}
