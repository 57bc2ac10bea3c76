// Package store implements the real disk-resident SILC index: a
// page-aligned file format for shortest-path quadtrees and a lazy,
// ReadAt-backed store that materializes per-vertex quadtrees on demand
// through the sharded buffer pool of internal/diskio — so pool hits and
// misses correspond to actual page reads, and eviction actually frees the
// decoded trees built over the evicted page.
//
// The monolithic paged image ("SILCPG1\0", conventionally *.silcpg) is laid
// out so every structure a query touches repeatedly sits on fixed-size
// pages:
//
//	superblock   92 bytes   magic, page size, counts, radius, section offsets
//	network      coords + CSR adjacency + CRC   (loaded eagerly: O(n+m))
//	extents      per-vertex block counts + CRC  (loaded eagerly: O(n))
//	  ...zero padding to a page boundary...
//	block pages  16-byte Morton-block entries, densely packed vertex-major,
//	             pageSize/16 entries per page   (demand-paged)
//	page CRCs    one CRC-32 per block page + table CRC (loaded eagerly)
//
// All integers are little-endian. Offsets are relative to the image start,
// so a complete image can be embedded inside a larger file (the sharded
// paged format does exactly that) and opened through an io.SectionReader.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"silc/internal/diskio"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
)

// MagicString identifies a monolithic paged store image.
const MagicString = "SILCPG1\x00"

// ShardedMagicString identifies a sharded paged file (partition metadata
// plus one embedded store image per cell).
const ShardedMagicString = "SILCSPG1"

// PageSize is the on-disk page size the writer emits. Readers accept any
// sane recorded page size; the pool's page math adapts.
const PageSize = diskio.DefaultPageSize

// entrySize is the 16-byte Morton-block disk entry: code u32, level u8,
// color u8, pad u16, lamLo f32, lamHi f32.
const entrySize = quadtree.EncodedSizeBytes

// superblockSize is the fixed byte size of the leading superblock.
const superblockSize = 92

const flagLenient = 1 << 0

// superblock is the decoded leading block of a monolithic image. version 1
// ("SILCPG1\0") lays fixed 16-byte entries on the block pages; version 2
// ("SILCPG2\0", format2.go) byte-packs compressed runs and additionally
// records compBytes, the dense length of the block section.
type superblock struct {
	version     int // 1 or 2; zero value means 1
	pageSize    int
	lenient     bool
	n           int
	m           int
	radius      float64
	totalBlocks int64
	compBytes   int64 // version 2 only
	netOff      int64
	extentOff   int64
	blockOff    int64
	blockPages  int64
	crcTabOff   int64
	imageSize   int64
}

// headerSize returns the byte size of the encoded superblock.
func (sb *superblock) headerSize() int64 {
	if sb.version == 2 {
		return superblockSize2
	}
	return superblockSize
}

func (sb *superblock) encode() []byte {
	buf := make([]byte, superblockSize)
	copy(buf[0:8], MagicString)
	le := binary.LittleEndian
	le.PutUint32(buf[8:12], uint32(sb.pageSize))
	var flags uint32
	if sb.lenient {
		flags |= flagLenient
	}
	le.PutUint32(buf[12:16], flags)
	le.PutUint32(buf[16:20], uint32(sb.n))
	le.PutUint32(buf[20:24], uint32(sb.m))
	le.PutUint64(buf[24:32], math.Float64bits(sb.radius))
	le.PutUint64(buf[32:40], uint64(sb.totalBlocks))
	le.PutUint64(buf[40:48], uint64(sb.netOff))
	le.PutUint64(buf[48:56], uint64(sb.extentOff))
	le.PutUint64(buf[56:64], uint64(sb.blockOff))
	le.PutUint64(buf[64:72], uint64(sb.blockPages))
	le.PutUint64(buf[72:80], uint64(sb.crcTabOff))
	le.PutUint64(buf[80:88], uint64(sb.imageSize))
	le.PutUint32(buf[88:92], crc32.ChecksumIEEE(buf[:88]))
	return buf
}

// decodeSuperblock parses and sanity-checks a superblock against the
// available image size.
func decodeSuperblock(buf []byte, size int64) (*superblock, error) {
	if len(buf) != superblockSize {
		return nil, fmt.Errorf("store: superblock is %d bytes, want %d", len(buf), superblockSize)
	}
	if string(buf[0:8]) != MagicString {
		return nil, fmt.Errorf("store: bad magic %q", buf[0:8])
	}
	le := binary.LittleEndian
	if stored, computed := le.Uint32(buf[88:92]), crc32.ChecksumIEEE(buf[:88]); stored != computed {
		return nil, fmt.Errorf("store: superblock checksum mismatch: stored %08x computed %08x", stored, computed)
	}
	sb := &superblock{
		version:     1,
		pageSize:    int(le.Uint32(buf[8:12])),
		lenient:     le.Uint32(buf[12:16])&flagLenient != 0,
		n:           int(le.Uint32(buf[16:20])),
		m:           int(le.Uint32(buf[20:24])),
		radius:      math.Float64frombits(le.Uint64(buf[24:32])),
		totalBlocks: int64(le.Uint64(buf[32:40])),
		netOff:      int64(le.Uint64(buf[40:48])),
		extentOff:   int64(le.Uint64(buf[48:56])),
		blockOff:    int64(le.Uint64(buf[56:64])),
		blockPages:  int64(le.Uint64(buf[64:72])),
		crcTabOff:   int64(le.Uint64(buf[72:80])),
		imageSize:   int64(le.Uint64(buf[80:88])),
	}
	if sb.pageSize < entrySize || sb.pageSize > 1<<20 || sb.pageSize%entrySize != 0 {
		return nil, fmt.Errorf("store: invalid page size %d", sb.pageSize)
	}
	if sb.n <= 0 {
		return nil, fmt.Errorf("store: invalid vertex count %d", sb.n)
	}
	if sb.m < 0 {
		return nil, fmt.Errorf("store: invalid edge count %d", sb.m)
	}
	if math.IsNaN(sb.radius) || sb.radius < 0 {
		return nil, fmt.Errorf("store: invalid proximity radius %v", sb.radius)
	}
	if sb.imageSize <= 0 || sb.imageSize > size {
		return nil, fmt.Errorf("store: image size %d exceeds available %d bytes", sb.imageSize, size)
	}
	// Sections must be ordered, in range, and sized exactly as the counts
	// imply — every later read is then bounded by imageSize.
	if sb.netOff != superblockSize {
		return nil, fmt.Errorf("store: network section at %d, want %d", sb.netOff, superblockSize)
	}
	if sb.extentOff != sb.netOff+NetworkSectionSize(sb.n, sb.m) {
		return nil, fmt.Errorf("store: extent section at %d, inconsistent with n=%d m=%d", sb.extentOff, sb.n, sb.m)
	}
	if sb.blockOff != Align(sb.extentOff+extentSectionSize(sb.n), int64(sb.pageSize)) {
		return nil, fmt.Errorf("store: block section at %d not page-aligned after extents", sb.blockOff)
	}
	if sb.totalBlocks < 0 || sb.totalBlocks > int64(sb.n)*int64(sb.n) {
		return nil, fmt.Errorf("store: implausible total block count %d for %d vertices", sb.totalBlocks, sb.n)
	}
	epp := int64(sb.pageSize / entrySize)
	wantPages := (sb.totalBlocks + epp - 1) / epp
	if sb.blockPages != wantPages {
		return nil, fmt.Errorf("store: %d block pages recorded, %d blocks imply %d", sb.blockPages, sb.totalBlocks, wantPages)
	}
	if sb.crcTabOff != sb.blockOff+sb.blockPages*int64(sb.pageSize) {
		return nil, fmt.Errorf("store: page CRC table at %d, inconsistent with %d block pages", sb.crcTabOff, sb.blockPages)
	}
	if sb.imageSize != sb.crcTabOff+sb.blockPages*4+4 {
		return nil, fmt.Errorf("store: image size %d inconsistent with section layout", sb.imageSize)
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

// extentSectionSize returns the byte size of the extent table, including
// its trailing CRC.
func extentSectionSize(n int) int64 {
	return int64(n)*4 + 4
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

// encodeExtentSection serializes the per-vertex block counts.
func encodeExtentSection(counts []uint32) []byte {
	buf := make([]byte, extentSectionSize(len(counts)))
	le := binary.LittleEndian
	for i, c := range counts {
		le.PutUint32(buf[i*4:], c)
	}
	le.PutUint32(buf[len(counts)*4:], crc32.ChecksumIEEE(buf[:len(counts)*4]))
	return buf
}

// decodeExtentSection parses and validates the per-vertex block counts. A
// shortest-path quadtree block contains at least one colored vertex, so no
// vertex can own n or more blocks.
func decodeExtentSection(buf []byte, n int, totalBlocks int64) ([]uint32, error) {
	if int64(len(buf)) != extentSectionSize(n) {
		return nil, fmt.Errorf("store: extent section is %d bytes, want %d", len(buf), extentSectionSize(n))
	}
	le := binary.LittleEndian
	payload := buf[:n*4]
	if stored, computed := le.Uint32(buf[n*4:]), crc32.ChecksumIEEE(payload); stored != computed {
		return nil, fmt.Errorf("store: extent section checksum mismatch: stored %08x computed %08x", stored, computed)
	}
	counts := make([]uint32, n)
	var total int64
	for v := range counts {
		counts[v] = le.Uint32(payload[v*4:])
		if counts[v] >= uint32(n) {
			return nil, fmt.Errorf("store: vertex %d records %d blocks, impossible for %d vertices", v, counts[v], n)
		}
		total += int64(counts[v])
	}
	if total != totalBlocks {
		return nil, fmt.Errorf("store: extent counts sum to %d blocks, superblock records %d", total, totalBlocks)
	}
	return counts, nil
}

// readSection reads exactly [off, off+size) from ra.
func readSection(ra io.ReaderAt, off, size int64) ([]byte, error) {
	buf := make([]byte, size)
	if _, err := ra.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}
