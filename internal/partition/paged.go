package partition

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"silc/internal/core"
	"silc/internal/diskio"
	"silc/internal/graph"
	"silc/internal/store"
)

// The sharded paged file format is partition metadata plus one complete
// embedded store image per cell, each opened as its own store over its
// section of the file (or of the file's mapping) while sharing ONE buffer
// pool — the paper's cache fraction stays a property of the whole
// database. The file opens with store.ShardedMagic, which store.Sniff
// recognises.
//
//	superblock   64 bytes   magic, page size, P, n, m, nb, section offsets
//	network      the GLOBAL network (store network-section encoding + CRC)
//	meta         selfContained flags, cellOf labels, closure D/hop + CRC
//	cell table   P x (imageOff, imageSize, pageBase) + CRC
//	cells        page-aligned embedded store images (one per cell)
//
// Everything is little-endian; offsets are absolute file offsets. The
// global network is embedded, so a sharded paged file is self-contained
// exactly like the monolithic one. Each cell image embeds its cell's
// subnetwork, the adjacency its block colors index, and the opened cell
// index reads that one; the open checks its vertex and arc counts against
// the cell. Local-id ordering and boundary rows are derived from the
// global network plus cellOf, so they are reconstructed rather than stored.

const shardedPagedSuperblockSize = 64

// shardedLayout is the fully planned sharded paged file: section offsets
// plus one ready-to-stream image plan per cell.
type shardedLayout struct {
	metaSize    int64
	cellTabOff  int64
	cellTabSize int64
	plans       []*store.ImagePlan
	offs        []int64
	sizes       []int64
	bases       []int64
	fileSize    int64
}

// planPagedLayout plans every cell image and lays out the sharded file.
// The per-cell image sizes are only known after encoding, which is why
// planning precedes any writing.
func (s *Sharded) planPagedLayout() (*shardedLayout, error) {
	if s.cells == nil {
		return nil, fmt.Errorf("partition: a remote (router-side) index holds no cell images to serialize")
	}
	g := s.g
	p := s.asn.P
	n, m := g.NumVertices(), g.NumEdges()
	nb := s.cl.NB()

	l := &shardedLayout{
		metaSize: int64(p) + int64(n)*4 + int64(nb)*int64(nb)*12 + 4,
		plans:    make([]*store.ImagePlan, p),
		offs:     make([]int64, p),
		sizes:    make([]int64, p),
		bases:    make([]int64, p),
	}
	l.cellTabOff = shardedPagedSuperblockSize + store.NetworkSectionSize(n, m) + l.metaSize
	l.cellTabSize = int64(p)*24 + 4

	// Cell layout: page-aligned embedded images, page ids concatenated.
	at := store.Align(l.cellTabOff+l.cellTabSize, store.PageSize)
	var pages int64
	for c, cx := range s.cells {
		pl, err := cx.ix.PlanPaged()
		if err != nil {
			return nil, fmt.Errorf("partition: planning cell %d image: %w", c, err)
		}
		l.plans[c] = pl
		l.offs[c] = at
		l.sizes[c] = pl.ImageSize()
		l.bases[c] = pages
		pages += pl.BlockPages()
		at = store.Align(at+l.sizes[c], store.PageSize)
	}
	l.fileSize = at // already page-aligned past the last cell image
	return l, nil
}

// WritePaged serializes the sharded index in the paged on-disk format in a
// single streaming pass over the planned layout, and returns that layout:
// per-cell sections summed, partition metadata counted under Extents, and
// Total the bytes written.
func (s *Sharded) WritePaged(w io.Writer) (store.ImageInfo, error) {
	l, err := s.planPagedLayout()
	if err != nil {
		return store.ImageInfo{}, err
	}
	if _, err := s.writeLayout(w, l); err != nil {
		return store.ImageInfo{}, err
	}
	out := store.ImageInfo{
		Superblock: shardedPagedSuperblockSize,
		Network:    store.NetworkSectionSize(s.g.NumVertices(), s.g.NumEdges()),
		Extents:    l.metaSize + l.cellTabSize,
		Total:      l.fileSize,
	}
	for _, pl := range l.plans {
		info := pl.Info()
		out.Superblock += info.Superblock
		out.Network += info.Network
		out.Extents += info.Extents
		out.BlockSection += info.BlockSection
		out.CRCTable += info.CRCTable
		out.BlockPages += info.BlockPages
		out.TotalBlocks += info.TotalBlocks
	}
	return out, nil
}

// writeLayout streams the planned sharded image l to w.
func (s *Sharded) writeLayout(w io.Writer, l *shardedLayout) (int64, error) {
	g := s.g
	p := s.asn.P
	n, m := g.NumVertices(), g.NumEdges()
	nb := s.cl.NB()

	netOff := int64(shardedPagedSuperblockSize)
	metaOff := netOff + store.NetworkSectionSize(n, m)
	metaSize := l.metaSize
	cellTabOff := l.cellTabOff
	cellTabSize := l.cellTabSize
	offs, sizes, bases := l.offs, l.sizes, l.bases
	fileSize := l.fileSize

	cw := store.NewCountingWriter(w)
	le := binary.LittleEndian

	head := make([]byte, shardedPagedSuperblockSize)
	copy(head[0:8], store.ShardedMagic)
	le.PutUint32(head[8:12], uint32(store.PageSize))
	le.PutUint32(head[12:16], uint32(p))
	le.PutUint32(head[16:20], uint32(n))
	le.PutUint32(head[20:24], uint32(m))
	le.PutUint32(head[24:28], uint32(nb))
	le.PutUint64(head[28:36], uint64(netOff))
	le.PutUint64(head[36:44], uint64(metaOff))
	le.PutUint64(head[44:52], uint64(cellTabOff))
	le.PutUint64(head[52:60], uint64(fileSize))
	le.PutUint32(head[60:64], crc32.ChecksumIEEE(head[:60]))
	if _, err := cw.Write(head); err != nil {
		return cw.N, err
	}
	if _, err := cw.Write(store.EncodeNetworkSection(g)); err != nil {
		return cw.N, err
	}

	meta := make([]byte, metaSize)
	mb := meta
	for c := 0; c < p; c++ {
		if s.selfContained[c] {
			mb[c] = 1
		}
	}
	mb = mb[p:]
	for i, c := range s.asn.CellOf {
		le.PutUint32(mb[i*4:], uint32(c))
	}
	mb = mb[n*4:]
	for i, d := range s.cl.D {
		le.PutUint64(mb[i*8:], math.Float64bits(d))
	}
	mb = mb[nb*nb*8:]
	for i, h := range s.cl.Hop {
		le.PutUint32(mb[i*4:], uint32(h))
	}
	mb = mb[nb*nb*4:]
	le.PutUint32(mb, crc32.ChecksumIEEE(meta[:metaSize-4]))
	if _, err := cw.Write(meta); err != nil {
		return cw.N, err
	}

	tab := make([]byte, cellTabSize)
	for c := 0; c < p; c++ {
		le.PutUint64(tab[c*24:], uint64(offs[c]))
		le.PutUint64(tab[c*24+8:], uint64(sizes[c]))
		le.PutUint64(tab[c*24+16:], uint64(bases[c]))
	}
	le.PutUint32(tab[p*24:], crc32.ChecksumIEEE(tab[:p*24]))
	if _, err := cw.Write(tab); err != nil {
		return cw.N, err
	}

	for c := range s.cells {
		if err := cw.PadTo(offs[c]); err != nil {
			return cw.N, err
		}
		written, err := l.plans[c].WriteTo(cw)
		if err != nil {
			return cw.N, err
		}
		if written != sizes[c] {
			return cw.N, fmt.Errorf("partition: cell %d image wrote %d bytes, predicted %d (format drift)", c, written, sizes[c])
		}
	}
	if err := cw.PadTo(fileSize); err != nil {
		return cw.N, err
	}
	if err := cw.Flush(); err != nil {
		return cw.N, err
	}
	return cw.N, nil
}

// OpenPaged opens a sharded paged file: partition metadata and the global
// network load eagerly, then every cell opens its own store over its
// embedded image — all cells sharing one buffer pool sized by
// opt.CacheFraction of the whole database. Over a store.Mapping each cell
// store copies its missed pages out of its own section of the mapping.
func OpenPaged(ra io.ReaderAt, size int64, opt Options) (*Sharded, error) {
	meta, err := OpenPagedMeta(ra, size)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	g, asn := meta.g, meta.asn
	p := asn.P
	cellTabOff, fileSize := meta.cellTabOff, meta.fileSize

	tab := make([]byte, int64(p)*24+4)
	if _, err := ra.ReadAt(tab, cellTabOff); err != nil {
		return nil, fmt.Errorf("partition: reading cell table: %w", err)
	}
	if stored, computed := le.Uint32(tab[p*24:]), crc32.ChecksumIEEE(tab[:p*24]); stored != computed {
		return nil, fmt.Errorf("partition: cell table checksum mismatch: stored %08x computed %08x", stored, computed)
	}

	offs := make([]int64, p)
	sizes := make([]int64, p)
	bases := make([]int64, p)
	for c := 0; c < p; c++ {
		offs[c] = int64(le.Uint64(tab[c*24:]))
		sizes[c] = int64(le.Uint64(tab[c*24+8:]))
		bases[c] = int64(le.Uint64(tab[c*24+16:]))
		if offs[c] < cellTabOff || sizes[c] <= 0 || offs[c]+sizes[c] > fileSize {
			return nil, fmt.Errorf("partition: cell %d image [%d, +%d) out of file bounds", c, offs[c], sizes[c])
		}
	}

	// First open every cell store (page counts come from the images), then
	// size the one pool they share over all their block pages. Each cell's
	// index reads the network embedded in its image, the adjacency its block
	// colors index; it must have the vertex and arc counts of the cell's
	// induced subnetwork, which cellOf fixes.
	pager := store.NewPager(nil) // pool installed below, before any touch
	arcs := cellArcCounts(g, asn)
	cells := make([]*cell, p)
	var totalBlockPages int64
	for c := 0; c < p; c++ {
		var cellRA io.ReaderAt = io.NewSectionReader(ra, offs[c], sizes[c])
		if m, ok := ra.(store.Mapping); ok { // each cell copies out of its section
			cellRA = m[offs[c] : offs[c]+sizes[c]]
		}
		st, err := store.Open(cellRA, sizes[c], store.OpenOptions{Pager: pager, PageBase: diskio.PageID(bases[c])})
		if err != nil {
			return nil, fmt.Errorf("partition: cell %d store: %w", c, err)
		}
		if bases[c] != totalBlockPages {
			return nil, fmt.Errorf("partition: cell %d page base %d, want %d", c, bases[c], totalBlockPages)
		}
		totalBlockPages += st.BlockPages()
		if sg := st.Graph(); sg.NumVertices() != len(asn.Verts[c]) || sg.NumEdges() != arcs[c] {
			return nil, fmt.Errorf("partition: cell %d embedded network (%d vertices, %d edges) does not match its cell (%d, %d)",
				c, sg.NumVertices(), sg.NumEdges(), len(asn.Verts[c]), arcs[c])
		}
		cells[c] = &cell{id: int32(c), ix: core.NewPagedIndex(core.PagedConfig{Source: st}), toGlobal: asn.Verts[c]}
	}
	capacity := opt.poolPages
	if capacity <= 0 {
		if capacity, err = store.PoolPages(totalBlockPages, opt.CacheFraction); err != nil {
			return nil, err
		}
	}
	pager.SetPool(diskio.NewPool(capacity, 1))

	s := meta.sharded()
	s.cells, s.pager = cells, pager
	s.bindCells()
	s.stats = s.computeStats()
	return s, nil
}

// RouterMeta is the metadata half of a sharded paged file — superblock,
// embedded global network, cell labels, boundary closure, self-contained
// flags: everything except the cell images. OpenPaged continues from it to
// the cell table; a stateless cluster router needs nothing else (NewRemote),
// and because it is read from the same bytes the cell nodes serve, router and
// nodes can never disagree about the partitioning.
type RouterMeta struct {
	cellTabOff    int64
	fileSize      int64
	g             *graph.Network
	asn           *Assignment
	cl            *Closure
	selfContained []bool
}

// OpenPagedMeta reads and validates the metadata sections of a sharded paged
// file. It never touches the cell images, so it is cheap relative to a full
// open.
func OpenPagedMeta(ra io.ReaderAt, size int64) (*RouterMeta, error) {
	head := make([]byte, shardedPagedSuperblockSize)
	if _, err := ra.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("partition: reading superblock: %w", err)
	}
	le := binary.LittleEndian
	sharded, err := store.Sniff(head[0:8])
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	if !sharded {
		return nil, fmt.Errorf("partition: %q opens a monolithic image, not a sharded file", head[0:8])
	}
	if stored, computed := le.Uint32(head[60:64]), crc32.ChecksumIEEE(head[:60]); stored != computed {
		return nil, fmt.Errorf("partition: superblock checksum mismatch: stored %08x computed %08x", stored, computed)
	}
	pageSize := int64(le.Uint32(head[8:12]))
	p := int(le.Uint32(head[12:16]))
	n := int(le.Uint32(head[16:20]))
	m := int(le.Uint32(head[20:24]))
	nb := int(le.Uint32(head[24:28]))
	netOff := int64(le.Uint64(head[28:36]))
	metaOff := int64(le.Uint64(head[36:44]))
	cellTabOff := int64(le.Uint64(head[44:52]))
	fileSize := int64(le.Uint64(head[52:60]))
	if pageSize < 16 || pageSize > 1<<20 {
		return nil, fmt.Errorf("partition: invalid page size %d", pageSize)
	}
	if n <= 0 || m < 0 {
		return nil, fmt.Errorf("partition: invalid network dimensions n=%d m=%d", n, m)
	}
	if p < 1 || p > n {
		return nil, fmt.Errorf("partition: invalid partition count %d", p)
	}
	if nb < 0 || nb > n {
		return nil, fmt.Errorf("partition: invalid boundary count %d of %d vertices", nb, n)
	}
	if fileSize <= 0 || fileSize > size {
		return nil, fmt.Errorf("partition: file size %d exceeds available %d bytes", fileSize, size)
	}
	if netOff != shardedPagedSuperblockSize || metaOff != netOff+store.NetworkSectionSize(n, m) {
		return nil, fmt.Errorf("partition: inconsistent section offsets")
	}
	metaSize := int64(p) + int64(n)*4 + int64(nb)*int64(nb)*12 + 4
	if cellTabOff != metaOff+metaSize || cellTabOff+int64(p)*24+4 > fileSize {
		return nil, fmt.Errorf("partition: inconsistent section offsets")
	}

	netBuf := make([]byte, store.NetworkSectionSize(n, m))
	if _, err := ra.ReadAt(netBuf, netOff); err != nil {
		return nil, fmt.Errorf("partition: reading network section: %w", err)
	}
	g, err := store.DecodeNetworkSection(netBuf, n, m)
	if err != nil {
		return nil, err
	}

	meta := make([]byte, metaSize)
	if _, err := ra.ReadAt(meta, metaOff); err != nil {
		return nil, fmt.Errorf("partition: reading metadata: %w", err)
	}
	if stored, computed := le.Uint32(meta[metaSize-4:]), crc32.ChecksumIEEE(meta[:metaSize-4]); stored != computed {
		return nil, fmt.Errorf("partition: metadata checksum mismatch: stored %08x computed %08x", stored, computed)
	}
	selfContained := make([]bool, p)
	for c := 0; c < p; c++ {
		selfContained[c] = meta[c]&1 != 0
	}
	mb := meta[p:]
	cellOf := make([]int32, n)
	for v := range cellOf {
		c := le.Uint32(mb[v*4:])
		if int(c) >= p {
			return nil, fmt.Errorf("partition: vertex %d labeled with cell %d of %d", v, c, p)
		}
		cellOf[v] = int32(c)
	}
	mb = mb[n*4:]
	cl := &Closure{D: make([]float64, nb*nb), Hop: make([]int32, nb*nb)}
	for i := range cl.D {
		d := math.Float64frombits(le.Uint64(mb[i*8:]))
		if math.IsNaN(d) || d < 0 {
			return nil, fmt.Errorf("partition: invalid closure distance %v", d)
		}
		cl.D[i] = d
	}
	mb = mb[nb*nb*8:]
	for i := range cl.Hop {
		h := le.Uint32(mb[i*4:])
		if int(h) >= nb {
			return nil, fmt.Errorf("partition: closure hop %d out of %d rows", h, nb)
		}
		cl.Hop[i] = int32(h)
	}

	asn, err := assignmentFromCellOf(g, cellOf, p)
	if err != nil {
		return nil, err
	}
	b, rowOf, cellStart := boundaryRows(g, asn)
	if len(b) != nb {
		return nil, fmt.Errorf("partition: index records %d boundary vertices, network derives %d", nb, len(b))
	}
	cl.B, cl.RowOf, cl.CellStart = b, rowOf, cellStart
	return &RouterMeta{
		cellTabOff:    cellTabOff,
		fileSize:      fileSize,
		g:             g,
		asn:           asn,
		cl:            cl,
		selfContained: selfContained,
	}, nil
}

// sharded starts a Sharded from the metadata: everything but its cells.
func (m *RouterMeta) sharded() *Sharded {
	return &Sharded{g: m.g, asn: m.asn, cl: m.cl, selfContained: m.selfContained,
		labels: newLabelTables(m.asn.P, m.cl.NB())}
}

// Network returns the embedded global network.
func (m *RouterMeta) Network() *graph.Network { return m.g }

// NumPartitions returns the cell count P.
func (m *RouterMeta) NumPartitions() int { return m.asn.P }

// BoundaryRows returns the closure row range [lo, hi) of cell c.
func (m *RouterMeta) BoundaryRows(c int) (lo, hi int32) { return m.cl.Rows(int32(c)) }
