package partition

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"silc/internal/core"
	"silc/internal/graph"
)

// The sharded index file format is little-endian binary:
//
//	magic   "SILCSHD1"                    8 bytes
//	p       uint32   partition count
//	n       uint32   vertex count
//	nb      uint32   boundary-vertex count (cross-checked on load)
//	flags   1 byte per cell: bit 0 = self-contained
//	cellOf  uint32 x n                    per-vertex cell labels
//	cells   p x (int64 length + core index stream)
//	        (each cell stream carries its own magic and CRC; the length
//	        prefix exists because the loader reads cells through buffered
//	        readers that must not consume past a cell's end)
//	D       float64 x nb^2               boundary distance matrix
//	hop     int32 x nb^2                 next-boundary-hop matrix
//	crc     uint32   CRC-32 (IEEE) of everything above
//
// Everything else — local-id ordering, subnetworks, boundary rows, bounding
// boxes — is deterministically derived from the network plus cellOf, so it
// is reconstructed rather than stored.

// MagicString is the sharded file format's leading identifier, exposed so
// loaders can sniff whether a file holds a sharded or a monolithic index.
const MagicString = "SILCSHD1"

var shardedMagic = [8]byte{'S', 'I', 'L', 'C', 'S', 'H', 'D', '1'}

// WriteTo serializes the sharded index.
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	if s.cells == nil {
		return 0, fmt.Errorf("partition: a remote (router-side) index holds no cell images to serialize")
	}
	cw := &countingWriter{w: &crcWriter{w: w}}
	bw := bufio.NewWriter(cw)

	if _, err := bw.Write(shardedMagic[:]); err != nil {
		return cw.n, err
	}
	var u32 [4]byte
	for _, v := range []uint32{uint32(s.asn.P), uint32(s.g.NumVertices()), uint32(s.cl.NB())} {
		binary.LittleEndian.PutUint32(u32[:], v)
		if _, err := bw.Write(u32[:]); err != nil {
			return cw.n, err
		}
	}
	for c := 0; c < s.asn.P; c++ {
		var b byte
		if s.selfContained[c] {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return cw.n, err
		}
	}
	for _, c := range s.asn.CellOf {
		binary.LittleEndian.PutUint32(u32[:], uint32(c))
		if _, err := bw.Write(u32[:]); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	var u64 [8]byte
	for c, cx := range s.cells {
		// The core index stream's length is determined by its format: magic
		// + vertex count + radius + per-vertex block counts + 16-byte blocks
		// + CRC trailer. Cross-checked against the actual write below.
		predicted := int64(8+4+8+4) + 4*int64(cx.sub.NumVertices()) + 16*cx.ix.Stats().TotalBlocks
		binary.LittleEndian.PutUint64(u64[:], uint64(predicted))
		if _, err := cw.Write(u64[:]); err != nil {
			return cw.n, err
		}
		written, err := cx.ix.WriteTo(cw)
		if err != nil {
			return cw.n, err
		}
		if written != predicted {
			return cw.n, fmt.Errorf("partition: cell %d stream wrote %d bytes, predicted %d (format drift)", c, written, predicted)
		}
	}
	for _, d := range s.cl.D {
		binary.LittleEndian.PutUint64(u64[:], math.Float64bits(d))
		if _, err := bw.Write(u64[:]); err != nil {
			return cw.n, err
		}
	}
	for _, h := range s.cl.Hop {
		binary.LittleEndian.PutUint32(u32[:], uint32(h))
		if _, err := bw.Write(u32[:]); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	binary.LittleEndian.PutUint32(u32[:], cw.w.(*crcWriter).crc)
	if _, err := w.Write(u32[:]); err != nil {
		return cw.n, err
	}
	return cw.n + 4, nil
}

// Load deserializes a sharded index produced by WriteTo and binds it to g,
// which must be the network it was built from. The assignment, subnetworks
// and boundary rows are rebuilt from the stored cell labels; corruption is
// detected by the trailing CRC (plus each embedded cell index's own CRC).
func Load(r io.Reader, g *graph.Network) (*Sharded, error) {
	cr := &crcReader{r: bufio.NewReader(r)}

	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("partition: reading magic: %w", err)
	}
	if magic != shardedMagic {
		return nil, fmt.Errorf("partition: bad magic %q", magic[:])
	}
	var u32 [4]byte
	readU32 := func(what string) (uint32, error) {
		if _, err := io.ReadFull(cr, u32[:]); err != nil {
			return 0, fmt.Errorf("partition: reading %s: %w", what, err)
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	p32, err := readU32("partition count")
	if err != nil {
		return nil, err
	}
	n32, err := readU32("vertex count")
	if err != nil {
		return nil, err
	}
	nb32, err := readU32("boundary count")
	if err != nil {
		return nil, err
	}
	p, n, nb := int(p32), int(n32), int(nb32)
	if n != g.NumVertices() {
		return nil, fmt.Errorf("partition: index has %d vertices, network has %d", n, g.NumVertices())
	}
	if p < 1 || p > n {
		return nil, fmt.Errorf("partition: invalid partition count %d", p)
	}
	// Boundary vertices are network vertices: a corrupt count must fail
	// here rather than drive the nb^2 closure allocation below.
	if nb > n {
		return nil, fmt.Errorf("partition: %d boundary vertices recorded for %d network vertices", nb, n)
	}
	selfContained := make([]bool, p)
	for c := 0; c < p; c++ {
		var b [1]byte
		if _, err := io.ReadFull(cr, b[:]); err != nil {
			return nil, fmt.Errorf("partition: reading cell flags: %w", err)
		}
		selfContained[c] = b[0]&1 != 0
	}
	cellOf := make([]int32, n)
	for v := range cellOf {
		c, err := readU32("cell label")
		if err != nil {
			return nil, err
		}
		if int(c) >= p {
			return nil, fmt.Errorf("partition: vertex %d labeled with cell %d of %d", v, c, p)
		}
		cellOf[v] = int32(c)
	}
	asn, err := assignmentFromCellOf(g, cellOf, p)
	if err != nil {
		return nil, err
	}

	cells := make([]*cell, p)
	var u64 [8]byte
	for c := 0; c < p; c++ {
		sub, err := subnetwork(g, asn, c)
		if err != nil {
			return nil, fmt.Errorf("partition: cell %d subnetwork: %w", c, err)
		}
		if _, err := io.ReadFull(cr, u64[:]); err != nil {
			return nil, fmt.Errorf("partition: reading cell %d length: %w", c, err)
		}
		length := int64(binary.LittleEndian.Uint64(u64[:]))
		if length <= 0 {
			return nil, fmt.Errorf("partition: cell %d has invalid stream length %d", c, length)
		}
		// core.Load reads through its own buffered reader; the LimitReader
		// keeps that buffering from consuming past this cell's stream.
		ix, err := core.Load(io.LimitReader(cr, length), sub, core.BuildOptions{AllowUnreachable: p > 1})
		if err != nil {
			return nil, fmt.Errorf("partition: cell %d index: %w", c, err)
		}
		cells[c] = &cell{id: int32(c), sub: sub, ix: ix, toGlobal: asn.Verts[c]}
	}

	b, rowOf, cellStart := boundaryRows(g, asn)
	if len(b) != nb {
		return nil, fmt.Errorf("partition: index records %d boundary vertices, network derives %d", nb, len(b))
	}
	cl := &Closure{
		B:         b,
		RowOf:     rowOf,
		CellStart: cellStart,
		D:         make([]float64, nb*nb),
		Hop:       make([]int32, nb*nb),
	}
	for i := range cl.D {
		if _, err := io.ReadFull(cr, u64[:]); err != nil {
			return nil, fmt.Errorf("partition: reading closure distances: %w", err)
		}
		d := math.Float64frombits(binary.LittleEndian.Uint64(u64[:]))
		if math.IsNaN(d) || d < 0 {
			return nil, fmt.Errorf("partition: invalid closure distance %v", d)
		}
		cl.D[i] = d
	}
	for i := range cl.Hop {
		h, err := readU32("closure hops")
		if err != nil {
			return nil, err
		}
		if int(h) >= nb {
			return nil, fmt.Errorf("partition: closure hop %d out of %d rows", h, nb)
		}
		cl.Hop[i] = int32(h)
	}
	computed := cr.crc
	if _, err := io.ReadFull(cr.r, u32[:]); err != nil {
		return nil, fmt.Errorf("partition: reading checksum: %w", err)
	}
	if stored := binary.LittleEndian.Uint32(u32[:]); stored != computed {
		return nil, fmt.Errorf("partition: checksum mismatch: stored %08x computed %08x", stored, computed)
	}

	s := &Sharded{g: g, asn: asn, cells: cells, cl: cl, selfContained: selfContained, labels: newLabelTables(asn.P, cl.NB())}
	s.stats = s.computeStats()
	return s, nil
}

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
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
