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
// Tree is called once per vertex, in vertex order, while the plan encodes
// the vertex's run.
type Source struct {
	Graph   *graph.Network
	Lenient bool
	// NoNetwork plans a sharded file's cell image, which carries no
	// network section: its opener supplies Graph (OpenOptions.Network).
	NoNetwork bool
	Tree      func(v graph.VertexID) *quadtree.Tree
}

// ImagePlan is a fully laid-out paged image ready to stream: every section
// offset is fixed and the block section is already encoded (its size is not
// predictable from block counts alone). The sharded
// writer plans every cell up front to compute the cell table, then streams
// the plans.
type ImagePlan struct {
	src      Source
	sb       *superblock
	counts   []uint32
	byteLens []uint32
	blocks   []byte // the block section: every vertex's run, vertex-major
}

// ImageInfo describes the section layout of a planned image — what
// silcbuild prints as the per-section size table.
type ImageInfo struct {
	Superblock int64
	Network    int64
	Extents    int64
	// BlockSection is the on-disk size of the demand-paged block section
	// (BlockPages full pages, padded tail included).
	BlockSection int64
	CRCTable     int64
	Total        int64
	BlockPages   int64
	TotalBlocks  int64
}

// PlanImage lays out the paged image for src: it encodes every vertex's
// run and fixes all section offsets. The plan is then streamed by WriteTo.
func PlanImage(src Source) (*ImagePlan, error) {
	g := src.Graph
	n := g.NumVertices()
	sb := &superblock{pageSize: PageSize, lenient: src.Lenient, noNetwork: src.NoNetwork, n: n, m: g.NumEdges()}
	p := &ImagePlan{src: src, sb: sb, counts: make([]uint32, n), byteLens: make([]uint32, n)}
	for v := 0; v < n; v++ {
		t := src.Tree(graph.VertexID(v))
		nb := t.NumBlocks()
		p.counts[v] = uint32(nb)
		sb.totalBlocks += int64(nb)
		if nb == 0 {
			continue
		}
		before := len(p.blocks)
		var err error
		p.blocks, err = CompressRun(p.blocks, t.Blocks)
		if err != nil {
			return nil, fmt.Errorf("store: vertex %d: %w", v, err)
		}
		runLen := len(p.blocks) - before
		if int64(runLen) > math.MaxUint32 {
			return nil, fmt.Errorf("store: vertex %d run of %d bytes overflows the extent width", v, runLen)
		}
		p.byteLens[v] = uint32(runLen)
	}
	sb.blockBytes = int64(len(p.blocks))
	sb.layOut()
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
	return ImageInfo{
		Superblock:   superblockSize,
		Network:      sb.extentOff - sb.netOff,
		Extents:      extentSize(sb.n),
		BlockSection: sb.blockPages * int64(sb.pageSize),
		CRCTable:     sb.blockPages*4 + 4,
		Total:        sb.imageSize,
		BlockPages:   sb.blockPages,
		TotalBlocks:  sb.totalBlocks,
	}
}

// WriteTo streams the planned image to w in a single pass and returns the
// byte count, which always equals ImageSize on success.
func (p *ImagePlan) WriteTo(w io.Writer) (int64, error) {
	sb := p.sb
	cw := NewCountingWriter(w)
	var network []byte
	if !sb.noNetwork {
		network = EncodeNetworkSection(p.src.Graph)
	}
	for _, section := range [][]byte{sb.encode(), network, encodeExtentSection(p.counts, p.byteLens)} {
		if _, err := cw.Write(section); err != nil {
			return cw.N, err
		}
	}
	if err := cw.PadTo(sb.blockOff); err != nil {
		return cw.N, err
	}

	// The block section page by page, collecting the trailing page CRC
	// table, which ends with its own CRC.
	le := binary.LittleEndian
	tab := make([]byte, 0, sb.blockPages*4+4)
	page := make([]byte, sb.pageSize)
	for at := 0; at < len(p.blocks); at += len(page) {
		clear(page[copy(page, p.blocks[at:]):])
		tab = le.AppendUint32(tab, crc32.ChecksumIEEE(page))
		if _, err := cw.Write(page); err != nil {
			return cw.N, err
		}
	}
	tab = le.AppendUint32(tab, crc32.ChecksumIEEE(tab))
	if _, err := cw.Write(tab); err != nil {
		return cw.N, err
	}
	if err := cw.Flush(); err != nil {
		return cw.N, err
	}
	if cw.N != sb.imageSize {
		return cw.N, fmt.Errorf("store: wrote %d bytes, layout predicts %d (format drift)", cw.N, sb.imageSize)
	}
	return cw.N, nil
}

// ImageSize is the size of an image of n vertices, m edges and totalBlocks
// blocks stored as 16 bytes each, the footprint of the deleted fixed-width
// format. It stays only as the numerator of the benchmark module's
// store.image_ratio.
func ImageSize(n, m int, totalBlocks int64) int64 {
	blockPages := (totalBlocks*16 + PageSize - 1) / PageSize
	return Align(92+NetworkSectionSize(n, m)+4*int64(n)+4, PageSize) + blockPages*(PageSize+4) + 4
}

// CountingWriter buffers what an image writer emits and counts the bytes
// written, N: the file offset the writer has reached, which PadTo aligns
// to a planned section boundary. Flush before the count is final on disk.
type CountingWriter struct {
	w *bufio.Writer
	N int64
}

// NewCountingWriter returns a CountingWriter over a buffered w.
func NewCountingWriter(w io.Writer) *CountingWriter {
	return &CountingWriter{w: bufio.NewWriter(w)}
}

func (c *CountingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.N += int64(n)
	return n, err
}

// PadTo writes zeros up to offset off, which must not lie behind N.
func (c *CountingWriter) PadTo(off int64) error {
	if c.N > off {
		return fmt.Errorf("store: overran section boundary %d (at %d)", off, c.N)
	}
	_, err := c.Write(make([]byte, off-c.N))
	return err
}

// Flush writes the buffered bytes to the underlying writer.
func (c *CountingWriter) Flush() error { return c.w.Flush() }
