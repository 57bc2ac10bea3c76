package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"silc/internal/graph"
	"silc/internal/quadtree"
)

// Source describes a built index to be serialized as a paged store image.
// For fixed-width (CompressionNone) images Tree is called twice per vertex
// in vertex order — once to plan the layout, once to stream the blocks; for
// compressed images the planning pass encodes the runs, so Tree is called
// once.
type Source struct {
	Graph       *graph.Network
	Radius      float64
	Lenient     bool
	Compression Compression
	Tree        func(v graph.VertexID) *quadtree.Tree
}

// ImagePlan is a fully laid-out paged image ready to stream: every section
// offset is fixed, and for compressed images the block section is already
// encoded (its size is not predictable from block counts alone). The
// sharded writer plans every cell up front to compute the cell table, then
// streams the plans.
type ImagePlan struct {
	src      Source
	sb       *superblock
	counts   []uint32
	byteLens []uint32 // compressed images only
	comp     []byte   // compressed images: concatenated per-vertex runs
}

// ImageInfo describes the section layout of a planned image — what
// silcbuild prints as the per-section size table.
type ImageInfo struct {
	Compression Compression
	Superblock  int64
	Network     int64
	Extents     int64
	// BlockSection is the on-disk size of the demand-paged block section
	// (BlockPages full pages, zero-padded tail included).
	BlockSection int64
	CRCTable     int64
	Total        int64
	BlockPages   int64
	TotalBlocks  int64
	// RawBlockBytes is the fixed-width footprint of the same blocks —
	// TotalBlocks x 16 — the numerator of the block-stream ratio.
	RawBlockBytes int64
	// FixedWidthTotal is the image size a CompressionNone write of the same
	// index would produce; Ratio() compares against it.
	FixedWidthTotal int64
}

// Ratio returns the whole-image compression ratio (>= 1 in practice; 1 for
// CompressionNone images).
func (i ImageInfo) Ratio() float64 {
	if i.Total == 0 {
		return 1
	}
	return float64(i.FixedWidthTotal) / float64(i.Total)
}

// PlanImage lays out the paged image for src: per-vertex block counts, all
// section offsets, and — under CompressionDelta — the encoded block
// section. The plan is then streamed by WriteTo.
func PlanImage(src Source) (*ImagePlan, error) {
	g := src.Graph
	n, m := g.NumVertices(), g.NumEdges()
	sb := &superblock{
		version:  1,
		pageSize: PageSize,
		lenient:  src.Lenient,
		n:        n,
		m:        m,
		radius:   src.Radius,
	}
	p := &ImagePlan{src: src, sb: sb, counts: make([]uint32, n)}
	switch src.Compression {
	case CompressionNone:
		for v := 0; v < n; v++ {
			nb := src.Tree(graph.VertexID(v)).NumBlocks()
			p.counts[v] = uint32(nb)
			sb.totalBlocks += int64(nb)
		}
		epp := int64(PageSize / entrySize)
		sb.netOff = superblockSize
		sb.extentOff = sb.netOff + NetworkSectionSize(n, m)
		sb.blockOff = Align(sb.extentOff+extentSectionSize(n), PageSize)
		sb.blockPages = (sb.totalBlocks + epp - 1) / epp
	case CompressionDelta:
		sb.version = 2
		p.byteLens = make([]uint32, n)
		for v := 0; v < n; v++ {
			t := src.Tree(graph.VertexID(v))
			nb := t.NumBlocks()
			p.counts[v] = uint32(nb)
			sb.totalBlocks += int64(nb)
			if nb == 0 {
				continue
			}
			before := len(p.comp)
			var err error
			p.comp, err = CompressRun(p.comp, t.Blocks)
			if err != nil {
				return nil, fmt.Errorf("store: vertex %d: %w", v, err)
			}
			runLen := len(p.comp) - before
			if int64(runLen) > math.MaxUint32 {
				return nil, fmt.Errorf("store: vertex %d run of %d bytes overflows the extent width", v, runLen)
			}
			p.byteLens[v] = uint32(runLen)
		}
		sb.compBytes = int64(len(p.comp))
		sb.netOff = superblockSize2
		sb.extentOff = sb.netOff + NetworkSectionSize(n, m)
		sb.blockOff = Align(sb.extentOff+extent2SectionSize(n), PageSize)
		sb.blockPages = (sb.compBytes + PageSize - 1) / PageSize
	default:
		return nil, fmt.Errorf("store: unknown compression %d", src.Compression)
	}
	sb.crcTabOff = sb.blockOff + sb.blockPages*PageSize
	sb.imageSize = sb.crcTabOff + sb.blockPages*4 + 4
	return p, nil
}

// ImageSize returns the byte size WriteTo will produce.
func (p *ImagePlan) ImageSize() int64 { return p.sb.imageSize }

// BlockPages returns the number of demand-paged block pages of the planned
// image.
func (p *ImagePlan) BlockPages() int64 { return p.sb.blockPages }

// Info returns the section layout of the planned image.
func (p *ImagePlan) Info() ImageInfo {
	sb := p.sb
	extents := extentSectionSize(sb.n)
	if sb.version == 2 {
		extents = extent2SectionSize(sb.n)
	}
	return ImageInfo{
		Compression:     p.src.Compression,
		Superblock:      sb.headerSize(),
		Network:         NetworkSectionSize(sb.n, sb.m),
		Extents:         extents,
		BlockSection:    sb.blockPages * int64(sb.pageSize),
		CRCTable:        sb.blockPages*4 + 4,
		Total:           sb.imageSize,
		BlockPages:      sb.blockPages,
		TotalBlocks:     sb.totalBlocks,
		RawBlockBytes:   sb.totalBlocks * entrySize,
		FixedWidthTotal: ImageSize(sb.n, sb.m, sb.totalBlocks),
	}
}

// WriteTo streams the planned image to w in a single pass and returns the
// byte count, which always equals ImageSize on success.
func (p *ImagePlan) WriteTo(w io.Writer) (int64, error) {
	sb := p.sb
	cw := &countingWriter{w: bufio.NewWriter(w)}
	var head, extents []byte
	if sb.version == 2 {
		head = sb.encode2()
		extents = encodeExtent2Section(p.counts, p.byteLens)
	} else {
		head = sb.encode()
		extents = encodeExtentSection(p.counts)
	}
	for _, section := range [][]byte{head, EncodeNetworkSection(p.src.Graph), extents} {
		if _, err := cw.Write(section); err != nil {
			return cw.n, err
		}
	}
	if err := padTo(cw, sb.blockOff); err != nil {
		return cw.n, err
	}
	var pageCRCs []uint32
	var err error
	if sb.version == 2 {
		pageCRCs, err = p.writeCompressedPages(cw)
	} else {
		pageCRCs, err = p.writeFixedPages(cw)
	}
	if err != nil {
		return cw.n, err
	}
	if int64(len(pageCRCs)) != sb.blockPages {
		return cw.n, fmt.Errorf("store: wrote %d block pages, layout predicts %d", len(pageCRCs), sb.blockPages)
	}

	// Trailing page CRC table plus its own CRC.
	le := binary.LittleEndian
	tab := make([]byte, sb.blockPages*4+4)
	for i, c := range pageCRCs {
		le.PutUint32(tab[i*4:], c)
	}
	le.PutUint32(tab[sb.blockPages*4:], crc32.ChecksumIEEE(tab[:sb.blockPages*4]))
	if _, err := cw.Write(tab); err != nil {
		return cw.n, err
	}
	if err := cw.w.(*bufio.Writer).Flush(); err != nil {
		return cw.n, err
	}
	if cw.n != sb.imageSize {
		return cw.n, fmt.Errorf("store: wrote %d bytes, layout predicts %d (format drift)", cw.n, sb.imageSize)
	}
	return cw.n, nil
}

// writeFixedPages streams the v1 block section: 16-byte entries densely
// packed vertex-major, one CRC accumulated per completed page.
func (p *ImagePlan) writeFixedPages(cw *countingWriter) ([]uint32, error) {
	pageCRCs := make([]uint32, 0, p.sb.blockPages)
	page := make([]byte, 0, PageSize)
	flushPage := func() error {
		page = page[:PageSize] // zero-pad the partial tail
		pageCRCs = append(pageCRCs, crc32.ChecksumIEEE(page))
		if _, err := cw.Write(page); err != nil {
			return err
		}
		page = page[:0]
		return nil
	}
	var entry [entrySize]byte
	le := binary.LittleEndian
	n := p.src.Graph.NumVertices()
	for v := 0; v < n; v++ {
		for _, b := range p.src.Tree(graph.VertexID(v)).Blocks {
			if b.Color < 0 || b.Color > 255 {
				return nil, fmt.Errorf("store: vertex %d color %d exceeds the disk format's 8-bit width", v, b.Color)
			}
			le.PutUint32(entry[0:4], uint32(b.Cell.Code))
			entry[4] = b.Cell.Level
			entry[5] = byte(b.Color)
			entry[6], entry[7] = 0, 0
			le.PutUint32(entry[8:12], math.Float32bits(b.LamLo))
			le.PutUint32(entry[12:16], math.Float32bits(b.LamHi))
			page = append(page, entry[:]...)
			if len(page) == PageSize {
				if err := flushPage(); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(page) > 0 {
		if err := flushPage(); err != nil {
			return nil, err
		}
	}
	return pageCRCs, nil
}

// writeCompressedPages streams the already-encoded v2 block section page by
// page, zero-padding the tail.
func (p *ImagePlan) writeCompressedPages(cw *countingWriter) ([]uint32, error) {
	pageCRCs := make([]uint32, 0, p.sb.blockPages)
	page := make([]byte, PageSize)
	for at := 0; at < len(p.comp); at += PageSize {
		end := at + PageSize
		if end > len(p.comp) {
			end = len(p.comp)
		}
		nc := copy(page, p.comp[at:end])
		clear(page[nc:])
		pageCRCs = append(pageCRCs, crc32.ChecksumIEEE(page))
		if _, err := cw.Write(page); err != nil {
			return nil, err
		}
	}
	return pageCRCs, nil
}

// Write serializes a paged store image to w in a single streaming pass. It
// returns the image size in bytes.
func Write(w io.Writer, src Source) (int64, error) {
	p, err := PlanImage(src)
	if err != nil {
		return 0, err
	}
	return p.WriteTo(w)
}

// ImageSize predicts the byte size of the fixed-width (CompressionNone)
// paged image Write would produce, without writing it. The sharded v1
// writer uses it to lay out cell sections up front; compressed images are
// planned instead (PlanImage), since their size depends on the encoded
// bytes.
func ImageSize(n, m int, totalBlocks int64) int64 {
	epp := int64(PageSize / entrySize)
	blockOff := Align(superblockSize+NetworkSectionSize(n, m)+extentSectionSize(n), PageSize)
	blockPages := (totalBlocks + epp - 1) / epp
	return blockOff + blockPages*PageSize + blockPages*4 + 4
}

func padTo(cw *countingWriter, off int64) error {
	if cw.n > off {
		return fmt.Errorf("store: overran section boundary %d (at %d)", off, cw.n)
	}
	pad := make([]byte, off-cw.n)
	_, err := cw.Write(pad)
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
