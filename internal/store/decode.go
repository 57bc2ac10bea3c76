package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"silc/internal/geom"
	"silc/internal/quadtree"
)

// appendEntries appends one vertex's sorted run as the 16-byte Morton-block
// entries DecodeBlocks reads back. Colors must fit the entry's color byte.
func appendEntries(dst []byte, blocks []quadtree.Block) ([]byte, error) {
	le := binary.LittleEndian
	for i := range blocks {
		b := &blocks[i]
		if b.Color < 0 || b.Color > 255 {
			return nil, fmt.Errorf("store: block %d color %d exceeds the disk format's 8-bit width", i, b.Color)
		}
		dst = le.AppendUint32(dst, uint32(b.Cell.Code))
		dst = append(dst, b.Cell.Level, byte(b.Color), 0, 0)
		dst = le.AppendUint32(dst, math.Float32bits(b.LamLo))
		dst = le.AppendUint32(dst, math.Float32bits(b.LamHi))
	}
	return dst, nil
}

// decodeBlocks decodes one vertex's contiguous run of 16-byte Morton-block
// entries into quadtree blocks, validating every structural invariant the
// query path relies on: cell levels within the grid, cell codes aligned to
// their level, blocks sorted and disjoint, colors inside the vertex's
// out-degree, and ratio bounds that are ordered and not NaN. It returns the
// blocks and the minimum LamLo across them (1 for an empty run, matching
// quadtree.Tree.MinLambda semantics).
//
// This is the demand-paging deserializer: a corrupted block page surfaces
// here as an error, never as a panic or a silently wrong tree. The blocks
// are appended to dst[:0].
func decodeBlocks(dst []quadtree.Block, data []byte, deg int) ([]quadtree.Block, float64, error) {
	d, count, err := newEntryDecoder(data, deg)
	if err != nil {
		return nil, 0, err
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
	if count == 0 {
		minLambda = 1
	}
	return blocks, minLambda, nil
}

// LookupBlocks is the single-block counterpart of decodeBlocks: it returns
// the block whose cell contains code (ok false when none does) and how many
// entries it decoded. It allocates nothing.
//
// Unless validated, it is one validating pass over every entry of the run,
// so it errors exactly when decodeBlocks does. A validated run is one that
// already passed such a pass (the caller vouches its bytes are unchanged
// since), so its entries are known sorted and disjoint: the lookup binary
// searches for the first entry ending past code, and every entry it reads
// still passes the per-entry checks.
func LookupBlocks(data []byte, deg int, code geom.Code, validated bool) (found quadtree.Block, ok bool, decoded int, err error) {
	d, count, err := newEntryDecoder(data, deg)
	if err != nil {
		return quadtree.Block{}, false, 0, err
	}
	var b quadtree.Block
	if validated {
		lo, hi := 0, count
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			decoded++
			if err := d.entry(mid, &b); err != nil {
				return quadtree.Block{}, false, 0, err
			}
			if b.Cell.End() > code {
				hi, found = mid, b
			} else {
				lo = mid + 1
			}
		}
		// found is entry lo, the last mid to lower hi, unless lo == count.
		if lo == count || !found.Cell.ContainsCode(code) {
			return quadtree.Block{}, false, decoded, nil
		}
		return found, true, decoded, nil
	}
	for i := 0; i < count; i++ {
		if err := d.next(&b); err != nil {
			return quadtree.Block{}, false, 0, err
		}
		if !ok && b.Cell.ContainsCode(code) {
			found, ok = b, true
		}
	}
	return found, ok, count, nil
}

// entryDecoder walks a fixed-width run entry by entry; decodeBlocks and
// LookupBlocks both drive it, so every check is written once.
type entryDecoder struct {
	data    []byte
	deg     int
	i       int // index of the next entry
	prevEnd uint64
}

// newEntryDecoder checks the run is whole entries and returns the decoder
// with the run's entry count.
func newEntryDecoder(data []byte, deg int) (entryDecoder, int, error) {
	if len(data)%entrySize != 0 {
		return entryDecoder{}, 0, fmt.Errorf("store: block run of %d bytes is not a multiple of %d", len(data), entrySize)
	}
	return entryDecoder{data: data, deg: deg}, len(data) / entrySize, nil
}

// next decodes and validates the run's next entry into b: the checks of
// entry, and that it starts past the end of the entry before it.
func (d *entryDecoder) next(b *quadtree.Block) error {
	i := d.i
	d.i++
	if err := d.entry(i, b); err != nil {
		return err
	}
	if uint64(b.Cell.Code) < d.prevEnd {
		return fmt.Errorf("store: blocks not sorted/disjoint at %d", i)
	}
	d.prevEnd = uint64(b.Cell.End())
	return nil
}

// entry decodes entry i into b with every check that involves no other
// entry: level within the grid, code aligned to it, color inside the
// out-degree, ratio bounds ordered and not NaN.
func (d *entryDecoder) entry(i int, b *quadtree.Block) error {
	e := d.data[i*entrySize : (i+1)*entrySize]
	le := binary.LittleEndian
	b.Cell.Code = geom.Code(le.Uint32(e[0:4]))
	b.Cell.Level = e[4]
	b.Color = int32(e[5])
	b.LamLo = math.Float32frombits(le.Uint32(e[8:12]))
	b.LamHi = math.Float32frombits(le.Uint32(e[12:16]))
	if b.Cell.Level > geom.MaxLevel {
		return fmt.Errorf("store: block %d has level %d beyond %d", i, b.Cell.Level, geom.MaxLevel)
	}
	// Span is a power of four, so alignment is a mask test, not a division.
	if uint64(b.Cell.Code)&(b.Cell.Span()-1) != 0 {
		return fmt.Errorf("store: block %d code %x not aligned to level %d", i, uint64(b.Cell.Code), b.Cell.Level)
	}
	if int(b.Color) >= d.deg {
		return fmt.Errorf("store: block %d color %d exceeds out-degree %d", i, b.Color, d.deg)
	}
	if lo, hi := float64(b.LamLo), float64(b.LamHi); math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return fmt.Errorf("store: block %d has invalid ratio bounds [%v, %v]", i, lo, hi)
	}
	return nil
}
