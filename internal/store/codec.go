package store

import (
	"fmt"

	"silc/internal/geom"
	"silc/internal/quadtree"
)

// codec is everything the two encodings of a vertex's run differ in. The
// image around the runs — superblock, network, extent table, block pages,
// page CRC table (format.go) — is laid out and read by one code path for
// both; it asks the image's codec for the rest.
type codec struct {
	comp Compression
	// magic opens a monolithic image; shardedMagic a sharded file whose
	// embedded cell images all use this codec.
	magic, shardedMagic string
	// storesLengths: the superblock records the block section's byte count
	// and the extent table each vertex's run length. Otherwise both are
	// perBlock times the block count.
	storesLengths bool
	// perBlock is the fewest bytes one encoded block takes.
	perBlock int64
	// stalePad: the tail of the last block page, past the section's end,
	// repeats what the page before it holds there rather than zeros — how
	// the fixed-width writer has always padded. Readers never decode the
	// tail, but the page CRC covers it, so the images keep it.
	stalePad bool
	// checkRun reports whether bytes can be the length of a run of count
	// blocks (of a whole block section, too: sections are runs laid end to
	// end).
	checkRun func(count, bytes int64) error
	encode   func(dst []byte, blocks []quadtree.Block) ([]byte, error)
	// decode decodes a whole run, appending to dst[:0]. lookup finds the
	// block containing code and counts the blocks it decoded: a whole
	// validating pass, which records the run's restart points into points,
	// or — for a run that already passed one — only as many checked blocks
	// as the answer needs, resuming from those points. points is how many
	// restart points a run of count blocks has.
	decode func(dst []quadtree.Block, run []byte, count, deg int) ([]quadtree.Block, float64, error)
	lookup func(run []byte, count, deg int, code geom.Code, points []restart, validated bool) (quadtree.Block, bool, int, error)
	points func(count int) int
}

var codecs = [...]codec{
	CompressionNone: {
		comp:         CompressionNone,
		magic:        "SILCPG1\x00",
		shardedMagic: "SILCSPG1",
		perBlock:     entrySize,
		stalePad:     true,
		checkRun: func(count, bytes int64) error {
			if bytes != entrySize*count {
				return fmt.Errorf("%d bytes are not %d entries of %d", bytes, count, entrySize)
			}
			return nil
		},
		encode: appendEntries,
		decode: func(dst []quadtree.Block, run []byte, _, deg int) ([]quadtree.Block, float64, error) {
			return decodeBlocks(dst, run, deg)
		},
		lookup: func(run []byte, _, deg int, code geom.Code, _ []restart, validated bool) (quadtree.Block, bool, int, error) {
			return LookupBlocks(run, deg, code, validated)
		},
		points: func(int) int { return 0 }, // a validated lookup binary-searches
	},
	CompressionDelta: {
		comp:          CompressionDelta,
		magic:         "SILCPG2\x00",
		shardedMagic:  "SILCSPG2",
		storesLengths: true,
		perBlock:      runMinPerBlock,
		checkRun: func(count, bytes int64) error {
			if (count == 0 && bytes != 0) || (count > 0 && bytes < runMinPerBlock*count+runOverhead) {
				return fmt.Errorf("%d run bytes cannot hold %d blocks", bytes, count)
			}
			return nil
		},
		encode: CompressRun,
		decode: decompressRun,
		lookup: lookupRun,
		points: restartPoints,
	},
}

// codecFor returns the codec of c.
func codecFor(c Compression) (*codec, error) {
	if int(c) >= len(codecs) {
		return nil, fmt.Errorf("store: unknown compression %d", c)
	}
	return &codecs[c], nil
}

// headerSize is the byte size of the superblock: 92 bytes, plus the block
// section's byte count when the codec stores lengths.
func (c *codec) headerSize() int64 {
	if c.storesLengths {
		return superblockSize + 8
	}
	return superblockSize
}

// extentSize is the byte size of the extent table for n vertices: one
// column of block counts, a second of run lengths when the codec stores
// them, and the trailing CRC.
func (c *codec) extentSize(n int) int64 {
	cols := int64(1)
	if c.storesLengths {
		cols = 2
	}
	return cols*int64(n)*4 + 4
}

// Sniff names what an 8-byte magic opens: a monolithic image or a sharded
// file, and the encoding of its runs. ok is false for any other bytes.
func Sniff(magic []byte) (sharded bool, comp Compression, ok bool) {
	for i := range codecs {
		switch string(magic) {
		case codecs[i].magic:
			return false, codecs[i].comp, true
		case codecs[i].shardedMagic:
			return true, codecs[i].comp, true
		}
	}
	return false, 0, false
}

// ShardedMagic returns the magic of a sharded file whose cell images are
// encoded with comp, a Compression PlanImage accepts.
func ShardedMagic(comp Compression) string { return codecs[comp].shardedMagic }
