// Package store implements the real disk-resident SILC index: a
// page-aligned file format for shortest-path quadtrees and a lazy,
// ReadAt-backed store that decodes per-vertex quadtrees on demand from
// pages read through the buffer pool of internal/diskio, which holds the
// page frames — so pool hits and misses correspond to actual page reads,
// eviction actually frees the page's frame, and the pool is the only cache.
//
// A paged image (conventionally *.silcpg) is laid out so every structure a
// query touches repeatedly sits on fixed-size pages:
//
//	superblock   magic, page size, flags, counts, reserved, offsets + CRC
//	network      coords + CSR adjacency + CRC   (loaded eagerly: O(n+m))
//	extents      per-vertex block counts, then run lengths + CRC   (eager: O(n))
//	  ...zero padding to a page boundary...
//	block pages  one run per vertex with blocks, byte-packed vertex-major
//	             across pages                   (demand-paged)
//	page CRCs    one CRC-32 per block page + table CRC (loaded eagerly)
//
// A run is one vertex's sorted Morton blocks as a delta+varint stream
// behind a header that holds its restart table (compress.go). The magic is
// SILCPG3\0; a sharded file of embedded images (internal/partition) opens
// with SILCSPG3. The superblock is 100 bytes.
//
// All integers are little-endian. Offsets are relative to the image start,
// so a complete image can be embedded inside a larger file (the sharded
// paged format does exactly that) and opened through an io.SectionReader.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"silc/internal/geom"
	"silc/internal/graph"
)

// PageSize is the on-disk page size the writer emits. Readers accept any
// sane recorded page size; the pool's page math adapts.
const PageSize = 4096

// The magics of a monolithic image and of a sharded file, the only names
// of the formats: every other package asks Sniff or writes ShardedMagic.
const (
	magic        = "SILCPG3\x00"
	ShardedMagic = "SILCSPG3"
)

// ErrBadMagic reports bytes that open no paged image; the root package
// exports it as silc.ErrBadMagic.
var ErrBadMagic = errors.New("silc: not a paged index image (magic is neither SILCPG3 nor SILCSPG3)")

// ErrCorrupt is the one sentinel of a corrupt index found while serving
// it: a block page whose CRC does not match, a run header, restart entry or
// block that fails a decoder check, a copy out of a mapping that faulted
// (the file shrank under it), and, in internal/core, a lookup miss on a
// strict index or a refinement walk past n−1 hops. A plain I/O
// error of a ReaderAt does not wrap it. The root package exports it as
// silc.ErrCorruptImage.
var ErrCorrupt = errors.New("silc: corrupt index")

// corruptError marks err as corruption: errors.Is matches both err and
// ErrCorrupt, and the message is err's own.
type corruptError struct{ err error }

func (e corruptError) Error() string   { return e.err.Error() }
func (e corruptError) Unwrap() []error { return []error{e.err, ErrCorrupt} }

// corrupt returns err marked as corruption.
func corrupt(err error) error { return corruptError{err} }

// Sniff reports whether an 8-byte magic opens a sharded file or a
// monolithic image. Any other bytes are an error wrapping ErrBadMagic, which
// for a removed format says to rebuild the image.
func Sniff(m []byte) (sharded bool, err error) {
	switch string(m) {
	case magic:
		return false, nil
	case ShardedMagic:
		return true, nil
	case "SILCPG1\x00", "SILCSPG1": // the removed fixed-width format
		return false, fmt.Errorf("%w: %q is the removed fixed-width format (SILCPG1/SILCSPG1); rebuild the image with silcbuild -o", ErrBadMagic, m)
	case "SILCPG2\x00", "SILCSPG2": // the removed format without restart tables
		return false, fmt.Errorf("%w: %q is the removed format without restart tables (SILCPG2/SILCSPG2); rebuild the image with silcbuild -o", ErrBadMagic, m)
	}
	return false, fmt.Errorf("%w: got %q", ErrBadMagic, m)
}

// superblockSize is the byte size of the superblock.
const superblockSize = 100

// extentSize is the byte size of the extent table for n vertices: a column
// of block counts, a column of run lengths and the trailing CRC.
func extentSize(n int) int64 { return 8*int64(n) + 4 }

const flagLenient = 1 << 0

// superblock is the decoded leading block of a paged image.
type superblock struct {
	pageSize    int
	lenient     bool
	n           int
	m           int
	totalBlocks int64
	blockBytes  int64 // dense length of the block section
	netOff      int64
	extentOff   int64
	blockOff    int64
	blockPages  int64
	crcTabOff   int64
	imageSize   int64
}

// layOut places every section from the page size, the counts and the
// block section's byte count.
func (sb *superblock) layOut() {
	ps := int64(sb.pageSize)
	sb.netOff = superblockSize
	sb.extentOff = sb.netOff + NetworkSectionSize(sb.n, sb.m)
	sb.blockOff = Align(sb.extentOff+extentSize(sb.n), ps)
	sb.blockPages = (sb.blockBytes + ps - 1) / ps
	sb.crcTabOff = sb.blockOff + sb.blockPages*ps
	sb.imageSize = sb.crcTabOff + sb.blockPages*4 + 4
}

func (sb *superblock) encode() []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, superblockSize)
	buf = append(buf, magic...)
	var flags uint32
	if sb.lenient {
		flags |= flagLenient
	}
	buf = le.AppendUint32(buf, uint32(sb.pageSize))
	buf = le.AppendUint32(buf, flags)
	buf = le.AppendUint32(buf, uint32(sb.n))
	buf = le.AppendUint32(buf, uint32(sb.m))
	buf = le.AppendUint64(buf, 0) // reserved: the removed proximity radius
	buf = le.AppendUint64(buf, uint64(sb.totalBlocks))
	for _, w := range [...]int64{sb.blockBytes, sb.netOff, sb.extentOff, sb.blockOff, sb.blockPages, sb.crcTabOff, sb.imageSize} {
		buf = le.AppendUint64(buf, uint64(w))
	}
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeSuperblock parses and sanity-checks the superblockSize bytes of a
// superblock against the available image size.
func decodeSuperblock(buf []byte, size int64) (*superblock, error) {
	le := binary.LittleEndian
	body := len(buf) - 4
	if stored, computed := le.Uint32(buf[body:]), crc32.ChecksumIEEE(buf[:body]); stored != computed {
		return nil, fmt.Errorf("store: superblock checksum mismatch: stored %08x computed %08x", stored, computed)
	}
	sb := &superblock{
		pageSize:    int(le.Uint32(buf[8:12])),
		lenient:     le.Uint32(buf[12:16])&flagLenient != 0,
		n:           int(le.Uint32(buf[16:20])),
		m:           int(le.Uint32(buf[20:24])),
		totalBlocks: int64(le.Uint64(buf[32:40])),
	}
	for i, w := range [...]*int64{&sb.blockBytes, &sb.netOff, &sb.extentOff, &sb.blockOff, &sb.blockPages, &sb.crcTabOff, &sb.imageSize} {
		*w = int64(le.Uint64(buf[40+i*8:]))
	}
	if sb.pageSize < 16 || sb.pageSize > 1<<20 || sb.pageSize%16 != 0 {
		return nil, fmt.Errorf("store: invalid page size %d", sb.pageSize)
	}
	if sb.n <= 0 {
		return nil, fmt.Errorf("store: invalid vertex count %d", sb.n)
	}
	if sb.m < 0 {
		return nil, fmt.Errorf("store: invalid edge count %d", sb.m)
	}
	// The word at 24 held the proximity radius of a bounded build, a build
	// that no longer exists; every image written since has it zero.
	if w := le.Uint64(buf[24:32]); w != 0 {
		return nil, fmt.Errorf("store: image built with proximity radius %v, which is no longer supported; rebuild the image with silcbuild -o", math.Float64frombits(w))
	}
	if sb.imageSize <= 0 || sb.imageSize > size {
		return nil, fmt.Errorf("store: image size %d exceeds available %d bytes", sb.imageSize, size)
	}
	// Every block takes at least runMinPerBlock bytes of the block section,
	// which lies inside the image: bounding totalBlocks by that keeps the
	// page math in range.
	if sb.totalBlocks < 0 || sb.totalBlocks > int64(sb.n)*int64(sb.n) || sb.totalBlocks > sb.imageSize/runMinPerBlock {
		return nil, fmt.Errorf("store: implausible total block count %d for %d vertices", sb.totalBlocks, sb.n)
	}
	if err := checkRunLength(sb.totalBlocks, sb.blockBytes); err != nil || sb.blockBytes > sb.imageSize {
		return nil, fmt.Errorf("store: block section of %d bytes implausible for %d blocks", sb.blockBytes, sb.totalBlocks)
	}
	// Sections must sit exactly where the counts place them — every later
	// read is then bounded by imageSize.
	want := *sb
	want.layOut()
	if want != *sb {
		return nil, fmt.Errorf("store: sections at %d, %d, %d (%d block pages), %d, ending %d; the counts place them at %d, %d, %d (%d), %d, ending %d",
			sb.netOff, sb.extentOff, sb.blockOff, sb.blockPages, sb.crcTabOff, sb.imageSize,
			want.netOff, want.extentOff, want.blockOff, want.blockPages, want.crcTabOff, want.imageSize)
	}
	return sb, nil
}

// Align rounds off up to the next multiple of pageSize.
func Align(off, pageSize int64) int64 {
	return (off + pageSize - 1) / pageSize * pageSize
}

// NetworkSectionSize returns the byte size of the network section for n
// vertices and m directed edges, including its trailing CRC.
func NetworkSectionSize(n, m int) int64 {
	return int64(n)*16 + int64(n+1)*4 + int64(m)*12 + 4
}

// EncodeNetworkSection serializes g's coordinates and CSR adjacency.
func EncodeNetworkSection(g *graph.Network) []byte {
	n, m := g.NumVertices(), g.NumEdges()
	buf := make([]byte, NetworkSectionSize(n, m))
	le := binary.LittleEndian
	at := 0
	for v := 0; v < n; v++ {
		p := g.Point(graph.VertexID(v))
		le.PutUint64(buf[at:], math.Float64bits(p.X))
		le.PutUint64(buf[at+8:], math.Float64bits(p.Y))
		at += 16
	}
	edges := 0
	for v := 0; v <= n; v++ {
		le.PutUint32(buf[at:], uint32(edges))
		at += 4
		if v < n {
			edges += g.Degree(graph.VertexID(v))
		}
	}
	for v := 0; v < n; v++ {
		targets, weights := g.Neighbors(graph.VertexID(v))
		for i := range targets {
			le.PutUint32(buf[at:], uint32(targets[i]))
			le.PutUint64(buf[at+4:], math.Float64bits(weights[i]))
			at += 12
		}
	}
	le.PutUint32(buf[at:], crc32.ChecksumIEEE(buf[:at]))
	return buf
}

// DecodeNetworkSection rebuilds the network from an encoded section,
// revalidating it through graph.Builder (coordinates in range, positive
// weights, no self loops, distinct Morton cells).
func DecodeNetworkSection(buf []byte, n, m int) (*graph.Network, error) {
	if int64(len(buf)) != NetworkSectionSize(n, m) {
		return nil, fmt.Errorf("store: network section is %d bytes, want %d", len(buf), NetworkSectionSize(n, m))
	}
	le := binary.LittleEndian
	payload := buf[:len(buf)-4]
	if stored, computed := le.Uint32(buf[len(buf)-4:]), crc32.ChecksumIEEE(payload); stored != computed {
		return nil, fmt.Errorf("store: network section checksum mismatch: stored %08x computed %08x", stored, computed)
	}
	b := graph.NewBuilder()
	at := 0
	for v := 0; v < n; v++ {
		x := math.Float64frombits(le.Uint64(buf[at:]))
		y := math.Float64frombits(le.Uint64(buf[at+8:]))
		at += 16
		// graph.Builder range-checks coordinates, but NaN slips through
		// comparisons — reject non-finite values here.
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return nil, fmt.Errorf("store: vertex %d has non-finite coordinates (%v, %v)", v, x, y)
		}
		b.AddVertex(geom.Point{X: x, Y: y})
	}
	offsets := make([]int, n+1)
	for v := 0; v <= n; v++ {
		offsets[v] = int(le.Uint32(buf[at:]))
		at += 4
	}
	if offsets[0] != 0 || offsets[n] != m {
		return nil, fmt.Errorf("store: adjacency offsets cover %d..%d, want 0..%d", offsets[0], offsets[n], m)
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("store: adjacency offsets decrease at vertex %d", v)
		}
	}
	for v := 0; v < n; v++ {
		for i := offsets[v]; i < offsets[v+1]; i++ {
			target := le.Uint32(buf[at:])
			weight := math.Float64frombits(le.Uint64(buf[at+4:]))
			at += 12
			if int(target) >= n {
				return nil, fmt.Errorf("store: edge target %d out of %d vertices", target, n)
			}
			b.AddEdge(graph.VertexID(v), graph.VertexID(target), weight)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("store: rebuilding network: %w", err)
	}
	return g, nil
}

// encodeExtentSection serializes the per-vertex block counts, then the
// per-vertex run lengths.
func encodeExtentSection(counts, byteLens []uint32) []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, extentSize(len(counts)))
	for _, x := range counts {
		buf = le.AppendUint32(buf, x)
	}
	for _, x := range byteLens {
		buf = le.AppendUint32(buf, x)
	}
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeExtentSection parses and validates the per-vertex block counts and
// run lengths. A shortest-path quadtree block contains at least one colored
// vertex, so no vertex can own n or more blocks; each run length must be
// able to hold its blocks, and the columns must sum to the superblock's
// totals — a corrupt table cannot make a run claim more bytes than the
// section holds or fewer than its blocks need. It returns the counts and
// the runs' offsets: run v holds bytes [runOffs[v], runOffs[v+1]) of the
// block section.
func decodeExtentSection(buf []byte, n int, totalBlocks, blockBytes int64) (counts []uint32, runOffs []int64, err error) {
	le := binary.LittleEndian
	payload := buf[:len(buf)-4]
	if stored, computed := le.Uint32(buf[len(payload):]), crc32.ChecksumIEEE(payload); stored != computed {
		return nil, nil, fmt.Errorf("store: extent section checksum mismatch: stored %08x computed %08x", stored, computed)
	}
	counts = make([]uint32, n)
	runOffs = make([]int64, n+1)
	var total int64
	for v := range counts {
		counts[v] = le.Uint32(payload[v*4:])
		if counts[v] >= uint32(n) {
			return nil, nil, fmt.Errorf("store: vertex %d records %d blocks, impossible for %d vertices", v, counts[v], n)
		}
		runLen := int64(le.Uint32(payload[(n+v)*4:]))
		if err := checkRunLength(int64(counts[v]), runLen); err != nil {
			return nil, nil, fmt.Errorf("store: vertex %d: %w", v, err)
		}
		runOffs[v+1] = runOffs[v] + runLen
		total += int64(counts[v])
	}
	if total != totalBlocks {
		return nil, nil, fmt.Errorf("store: extent counts sum to %d blocks, superblock records %d", total, totalBlocks)
	}
	if totalBytes := runOffs[n]; totalBytes != blockBytes {
		return nil, nil, fmt.Errorf("store: extent run lengths sum to %d bytes, superblock records %d", totalBytes, blockBytes)
	}
	return counts, runOffs, nil
}

// readSection reads exactly [off, off+size) from ra.
func readSection(ra io.ReaderAt, off, size int64) ([]byte, error) {
	buf := make([]byte, size)
	if _, err := ra.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}
