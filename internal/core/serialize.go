package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
	"silc/internal/store"
)

// The index file format is little-endian binary:
//
//	magic   "SILCIDX1"                     8 bytes
//	n       uint32   vertex count
//	radius  float64  proximity bound (0 = unbounded)
//	counts  uint32 x n                     per-vertex block counts
//	blocks  16 bytes x total               all blocks, vertex-major
//	crc     uint32   CRC-32 (IEEE) of everything above
//
// Each block entry is the documented 16-byte disk layout:
//
//	code    uint32   Morton code (2 x 16 bits)
//	level   uint8
//	color   uint8    first-hop adjacency index (outdegree < 256)
//	pad     uint16   zero
//	lamLo   float32
//	lamHi   float32
//
// The network itself is serialized separately (graph.Write); an index file
// is only meaningful alongside the network it was built from, which Load
// cross-checks structurally.

var indexMagic = [8]byte{'S', 'I', 'L', 'C', 'I', 'D', 'X', '1'}

const blockEntrySize = quadtree.EncodedSizeBytes

// treeFor resolves one vertex's quadtree for serialization: directly for a
// memory-resident index, through the paged source (untracked) for a
// disk-backed one.
func (ix *Index) treeFor(v graph.VertexID) (*quadtree.Tree, error) {
	if ix.src == nil {
		return &ix.trees[v], nil
	}
	return ix.src.Tree(nil, v)
}

// pagedSource assembles the store.Source for serializing this index. Tree
// failures (an unreadable page behind a disk-backed index) are recorded in
// *treeErr, which the caller must check after the write/plan completes.
func (ix *Index) pagedSource(treeErr *error) store.Source {
	return store.Source{
		Graph:       ix.g,
		Radius:      ix.radius,
		Lenient:     ix.lenient,
		Compression: ix.comp,
		Tree: func(v graph.VertexID) *quadtree.Tree {
			t, err := ix.treeFor(v)
			if err != nil {
				if *treeErr == nil {
					*treeErr = err
				}
				return &quadtree.Tree{MinLambda: 1}
			}
			return t
		},
	}
}

// WritePaged serializes the index in the page-aligned on-disk format of
// internal/store — the format OpenIndex / store.Open reads back with demand
// paging. The network is embedded, so the image is self-contained. The
// block-page encoding follows BuildOptions.Compression (or, for an index
// opened from a paged image, that image's encoding).
func (ix *Index) WritePaged(w io.Writer) (int64, error) {
	var treeErr error
	written, err := store.Write(w, ix.pagedSource(&treeErr))
	if treeErr != nil {
		return written, treeErr
	}
	return written, err
}

// PlanPaged lays out the paged image WritePaged would produce without
// writing it: the plan reports per-section sizes and the compression ratio
// (ImagePlan.Info) and can then be streamed once with WriteTo. The sharded
// writer and silcbuild's size table both build on this.
func (ix *Index) PlanPaged() (*store.ImagePlan, error) {
	var treeErr error
	p, err := store.PlanImage(ix.pagedSource(&treeErr))
	if treeErr != nil {
		return nil, treeErr
	}
	return p, err
}

// WriteTo serializes the index. It returns an error if any vertex has an
// out-degree above 255 (the disk format's color width).
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: newCRCWriter(w)}
	bw := bufio.NewWriter(cw)

	if _, err := bw.Write(indexMagic[:]); err != nil {
		return cw.n, err
	}
	n := ix.g.NumVertices()
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(n))
	if _, err := bw.Write(u32[:]); err != nil {
		return cw.n, err
	}
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], math.Float64bits(ix.radius))
	if _, err := bw.Write(u64[:]); err != nil {
		return cw.n, err
	}
	for v := 0; v < n; v++ {
		binary.LittleEndian.PutUint32(u32[:], uint32(ix.BlockCount(graph.VertexID(v))))
		if _, err := bw.Write(u32[:]); err != nil {
			return cw.n, err
		}
	}
	var entry [blockEntrySize]byte
	for v := 0; v < n; v++ {
		t, err := ix.treeFor(graph.VertexID(v))
		if err != nil {
			return cw.n, err
		}
		for _, b := range t.Blocks {
			if b.Color < 0 || b.Color > 255 {
				return cw.n, fmt.Errorf("core: vertex %d color %d exceeds the disk format's 8-bit width", v, b.Color)
			}
			binary.LittleEndian.PutUint32(entry[0:4], uint32(b.Cell.Code))
			entry[4] = byte(b.Cell.Level)
			entry[5] = byte(b.Color)
			entry[6], entry[7] = 0, 0
			binary.LittleEndian.PutUint32(entry[8:12], math.Float32bits(b.LamLo))
			binary.LittleEndian.PutUint32(entry[12:16], math.Float32bits(b.LamHi))
			if _, err := bw.Write(entry[:]); err != nil {
				return cw.n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	// Trailer: CRC of everything written so far.
	crc := cw.w.(*crcWriter).sum()
	binary.LittleEndian.PutUint32(u32[:], crc)
	if _, err := w.Write(u32[:]); err != nil {
		return cw.n, err
	}
	return cw.n + 4, nil
}

// Load deserializes an index previously produced by WriteTo and binds it to
// g, which must be the network the index was built from. Structural
// mismatches (vertex count, block colors beyond out-degrees, uncovered
// vertices) and corruption (CRC) are detected; semantic equality with the
// original network beyond that is the caller's responsibility.
func Load(r io.Reader, g *graph.Network, opts BuildOptions) (*Index, error) {
	cr := newCRCReader(bufio.NewReader(r))

	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("core: bad magic %q", magic[:])
	}
	var u32 [4]byte
	if _, err := io.ReadFull(cr, u32[:]); err != nil {
		return nil, fmt.Errorf("core: reading vertex count: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(u32[:]))
	if n != g.NumVertices() {
		return nil, fmt.Errorf("core: index has %d vertices, network has %d", n, g.NumVertices())
	}
	var u64 [8]byte
	if _, err := io.ReadFull(cr, u64[:]); err != nil {
		return nil, fmt.Errorf("core: reading proximity radius: %w", err)
	}
	radius := math.Float64frombits(binary.LittleEndian.Uint64(u64[:]))
	if math.IsNaN(radius) || radius < 0 {
		return nil, fmt.Errorf("core: invalid proximity radius %v", radius)
	}
	counts := make([]uint32, n)
	for v := range counts {
		if _, err := io.ReadFull(cr, u32[:]); err != nil {
			return nil, fmt.Errorf("core: reading block count %d: %w", v, err)
		}
		counts[v] = binary.LittleEndian.Uint32(u32[:])
		// Every quadtree block contains at least one colored vertex, so no
		// vertex can own n or more blocks — and a corrupt count must fail
		// here rather than drive a giant allocation below.
		if counts[v] >= uint32(n) {
			return nil, fmt.Errorf("core: vertex %d records %d blocks, impossible for %d vertices", v, counts[v], n)
		}
	}
	trees := make([]quadtree.Tree, n)
	var entry [blockEntrySize]byte
	for v := 0; v < n; v++ {
		deg := g.Degree(graph.VertexID(v))
		t := &quadtree.Tree{
			Blocks:    make([]quadtree.Block, counts[v]),
			MinLambda: math.Inf(1),
		}
		var prevEnd uint64
		for i := range t.Blocks {
			if _, err := io.ReadFull(cr, entry[:]); err != nil {
				return nil, fmt.Errorf("core: reading block %d of vertex %d: %w", i, v, err)
			}
			b := &t.Blocks[i]
			b.Cell.Code = geom.Code(binary.LittleEndian.Uint32(entry[0:4]))
			b.Cell.Level = entry[4]
			b.Color = int32(entry[5])
			b.LamLo = math.Float32frombits(binary.LittleEndian.Uint32(entry[8:12]))
			b.LamHi = math.Float32frombits(binary.LittleEndian.Uint32(entry[12:16]))
			if b.Cell.Level > geom.MaxLevel {
				return nil, fmt.Errorf("core: vertex %d block %d has level %d", v, i, b.Cell.Level)
			}
			if int(b.Color) >= deg {
				return nil, fmt.Errorf("core: vertex %d block %d color %d exceeds out-degree %d", v, i, b.Color, deg)
			}
			if uint64(b.Cell.Code) < prevEnd {
				return nil, fmt.Errorf("core: vertex %d blocks not sorted/disjoint at %d", v, i)
			}
			prevEnd = uint64(b.Cell.End())
			if float64(b.LamLo) < t.MinLambda {
				t.MinLambda = float64(b.LamLo)
			}
		}
		if len(t.Blocks) == 0 {
			t.MinLambda = 1
		}
		t.Seal()
		trees[v] = *t
	}
	computed := cr.sum()
	if _, err := io.ReadFull(cr.r, u32[:]); err != nil {
		return nil, fmt.Errorf("core: reading checksum: %w", err)
	}
	if stored := binary.LittleEndian.Uint32(u32[:]); stored != computed {
		return nil, fmt.Errorf("core: checksum mismatch: stored %08x computed %08x", stored, computed)
	}

	ix := &Index{g: g, trees: trees, radius: radius, lenient: opts.AllowUnreachable, comp: opts.Compression}
	ix.stats = BuildStats{Vertices: n, Edges: g.NumEdges(), MinBlocks: math.MaxInt}
	for v := 0; v < n; v++ {
		b := trees[v].NumBlocks()
		ix.stats.TotalBlocks += int64(b)
		if b < ix.stats.MinBlocks {
			ix.stats.MinBlocks = b
		}
		if b > ix.stats.MaxBlocks {
			ix.stats.MaxBlocks = b
		}
	}
	ix.stats.TotalBytes = ix.stats.TotalBlocks * quadtree.EncodedSizeBytes
	// Coverage check: every other vertex must fall inside some block of
	// vertex 0's tree. Proximity-bounded and lenient (AllowUnreachable)
	// indexes legitimately leave vertices uncovered, so the check applies to
	// strict unbounded indexes only.
	if n > 1 && radius == 0 && !opts.AllowUnreachable {
		for _, w := range g.MortonOrder() {
			if w == 0 {
				continue
			}
			if _, ok := trees[0].Find(g.Code(w)); !ok {
				return nil, fmt.Errorf("core: loaded index does not cover vertex %d from vertex 0", w)
			}
		}
	}
	return ix, nil
}

// crcWriter/crcReader thread a CRC-32 through the stream.

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func newCRCWriter(w io.Writer) io.Writer { return &crcWriter{w: w} }

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (c *crcWriter) sum() uint32 { return c.crc }

type crcReader struct {
	r   io.Reader
	crc uint32
}

func newCRCReader(r io.Reader) *crcReader { return &crcReader{r: r} }

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (c *crcReader) sum() uint32 { return c.crc }

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
