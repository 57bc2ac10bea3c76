package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"silc/internal/diskio"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
)

// OpenOptions configures Open.
type OpenOptions struct {
	// CacheFraction sizes the private buffer pool as a fraction of the
	// image's block pages, through PoolPages: default 0.05, the paper's
	// setting; at 1 or above the pool holds the whole image.
	CacheFraction float64
	// Pager shares an externally owned pool across several stores — the
	// sharded open gives every cell store the same Pager so the cache
	// fraction stays a property of the whole database. When set, PageBase
	// is this store's first block-page id in the shared namespace and no
	// private pool is created.
	Pager    *Pager
	PageBase diskio.PageID
	// Network is the network of a sharded file's cell image, which carries
	// none; any other image opened with one fails with ErrCorrupt. Its counts
	// must be the image's, and block colors are checked against its out-degrees.
	Network *graph.Network

	// poolPages, when positive, replaces the CacheFraction sizing with an
	// absolute page capacity, so tests can force heavy eviction.
	poolPages int
}

// PoolPages is the pool-sizing policy of an opened image: fraction of its
// blockPages, the pages a query can read, where 0 means the paper's 5% and
// a fraction of 1 or more holds every page. NaN, ±Inf and negative
// fractions are rejected.
func PoolPages(blockPages int64, fraction float64) (int, error) {
	switch {
	case math.IsNaN(fraction) || math.IsInf(fraction, 0) || fraction < 0:
		return 0, fmt.Errorf("store: cache fraction %v: want a finite fraction >= 0", fraction)
	case fraction == 0:
		fraction = 0.05
	case fraction > 1:
		fraction = 1
	}
	return int(float64(blockPages) * fraction), nil
}

// Pager is the late-bound buffer pool that several stores share: the
// sharded open gives every cell store the same Pager and installs the pool
// once their page counts are known.
type Pager struct {
	pool *diskio.Pool
}

// NewPager returns a Pager over pool (which may be nil until SetPool).
func NewPager(pool *diskio.Pool) *Pager { return &Pager{pool: pool} }

// Pool returns the shared pool.
func (pg *Pager) Pool() *diskio.Pool { return pg.pool }

// SetPool installs the shared pool. The sharded open sizes the pool only
// after every cell store is open (capacity depends on their page counts);
// it must be called before the first query reads any of them.
func (pg *Pager) SetPool(pool *diskio.Pool) { pg.pool = pool }

// Store is an open paged index image: the network and extent table resident
// (O(n+m)), the Morton-block pages demand-paged through the buffer pool,
// which is the store's one cache and holds the page frames. Every pool miss
// fills a free frame of the pool by a ReadAt — a positioned read of a file,
// or a copy out of a Mapping — and checks its CRC, so resident page memory
// tracks the pool capacity rather than the index size. Nothing decoded is
// kept: a lookup or a tree decodes from the run's pages each time.
//
// A Store is safe for unlimited concurrent readers.
type Store struct {
	ra       io.ReaderAt
	closer   io.Closer
	sb       *superblock
	g        *graph.Network
	counts   []uint32
	runOffs  []int64 // run v is bytes [runOffs[v], runOffs[v+1]) of the block section
	pageCRCs []uint32
	pageBase diskio.PageID
	pager    *Pager
}

// loadScratch carries the run-sized buffer one run read (a tree decode or
// a lookup) copies its pages' bytes into. It is scratch — the decoder
// copies values out — so it recycles through a pool instead of being
// reallocated per read.
type loadScratch struct {
	run []byte
}

var loadPool = sync.Pool{New: func() any { return new(loadScratch) }}

// Open parses a paged store image from ra, whose total size must be given
// (files: Stat; embedded sections: the section length). The network, extent
// table, and page CRC table load eagerly; block pages are read only on
// demand.
func Open(ra io.ReaderAt, size int64, opts OpenOptions) (*Store, error) {
	m, err := readSection(ra, 0, 8)
	if err != nil {
		return nil, fmt.Errorf("store: reading superblock: %w", err)
	}
	sharded, err := Sniff(m)
	if err != nil {
		return nil, err
	}
	if sharded {
		return nil, fmt.Errorf("store: %q opens a sharded file, not a monolithic image", m)
	}
	head, err := readSection(ra, 0, superblockSize)
	if err != nil {
		return nil, fmt.Errorf("store: reading superblock: %w", err)
	}
	sb, err := decodeSuperblock(head, size)
	if err != nil {
		return nil, err
	}
	g := opts.Network
	switch {
	case sb.noNetwork != (g != nil) || g != nil && (g.NumVertices() != sb.n || g.NumEdges() != sb.m):
		return nil, corrupt(fmt.Errorf("store: image of %d vertices and %d arcs, network section %t: its opener must supply a network of those counts exactly when the image has no network section", sb.n, sb.m, !sb.noNetwork))
	case !sb.noNetwork:
		netBuf, err := readSection(ra, sb.netOff, NetworkSectionSize(sb.n, sb.m))
		if err != nil {
			return nil, fmt.Errorf("store: reading network section: %w", err)
		}
		if g, err = DecodeNetworkSection(netBuf, sb.n, sb.m); err != nil {
			return nil, err
		}
	}
	extBuf, err := readSection(ra, sb.extentOff, extentSize(sb.n))
	if err != nil {
		return nil, fmt.Errorf("store: reading extent section: %w", err)
	}
	counts, runOffs, err := decodeExtentSection(extBuf, sb.n, sb.totalBlocks, sb.blockBytes)
	if err != nil {
		return nil, err
	}
	tabBuf, err := readSection(ra, sb.crcTabOff, sb.blockPages*4+4)
	if err != nil {
		return nil, fmt.Errorf("store: reading page CRC table: %w", err)
	}
	if stored, computed := leU32(tabBuf[sb.blockPages*4:]), crc32.ChecksumIEEE(tabBuf[:sb.blockPages*4]); stored != computed {
		return nil, fmt.Errorf("store: page CRC table checksum mismatch: stored %08x computed %08x", stored, computed)
	}
	pageCRCs := make([]uint32, sb.blockPages)
	for i := range pageCRCs {
		pageCRCs[i] = leU32(tabBuf[i*4:])
	}
	s := &Store{
		ra:       ra,
		sb:       sb,
		g:        g,
		counts:   counts,
		runOffs:  runOffs,
		pageCRCs: pageCRCs,
	}
	if opts.Pager != nil {
		s.pager = opts.Pager
		s.pageBase = opts.PageBase
	} else {
		capacity := opts.poolPages
		if capacity <= 0 {
			if capacity, err = PoolPages(sb.blockPages, opts.CacheFraction); err != nil {
				return nil, err
			}
		}
		s.pager = NewPager(diskio.NewPool(capacity, 1))
	}
	return s, nil
}

// OpenFile opens a paged store file, keeping the file handle for the
// store's lifetime; Close releases it.
func OpenFile(path string, opts OpenOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := Open(f, info.Size(), opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// Close releases the underlying file when the store owns one.
func (s *Store) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// Graph returns the network rebuilt from the image's network section, or
// a cell image's OpenOptions.Network.
func (s *Store) Graph() *graph.Network { return s.g }

// Radius returns 0: the proximity-bounded build is gone and an image with a
// radius does not open. It stays only because the benchmark module calls
// it (ROADMAP 1(i)).
func (s *Store) Radius() float64 { return 0 }

// Lenient reports whether the index was built with AllowUnreachable.
func (s *Store) Lenient() bool { return s.sb.lenient }

// Compression returns CompressionDelta, the encoding of every image. It
// stays only because the benchmark module compiles against it.
func (s *Store) Compression() Compression { return CompressionDelta }

// Tracker returns the buffer pool the store charges, its own or its
// Pager's shared one. It would be named Pool; it keeps its old name only
// because the benchmark module calls it (ROADMAP 1(i)).
func (s *Store) Tracker() *diskio.Pool { return s.pager.pool }

// Pager returns the Pager whose pool this store reads through.
func (s *Store) Pager() *Pager { return s.pager }

// BlockPages returns the number of demand-paged block pages.
func (s *Store) BlockPages() int64 { return s.sb.blockPages }

// BlockStats returns the total, minimum, and maximum per-vertex block
// counts recorded in the extent table.
func (s *Store) BlockStats() (total int64, minBlocks, maxBlocks int) {
	minBlocks = int(^uint(0) >> 1)
	for _, c := range s.counts {
		if int(c) < minBlocks {
			minBlocks = int(c)
		}
		if int(c) > maxBlocks {
			maxBlocks = int(c)
		}
		total += int64(c)
	}
	return total, minBlocks, maxBlocks
}

// Tree decodes v's shortest-path quadtree into a new tree. Nothing is
// cached: every call reads the run's pages through the pool and decodes it
// again.
func (s *Store) Tree(ioStats *diskio.Stats, v graph.VertexID) (*quadtree.Tree, error) {
	t := new(quadtree.Tree)
	if err := s.DecodeTree(ioStats, v, t); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeTree decodes v's whole run into t, checking every block and every
// restart entry, and reusing t's block storage; on an error t's blocks are
// unspecified. Page traffic is charged to the shared pool and to ioStats
// (nil = untracked); misses perform real reads. A failed check is an error
// wrapping ErrCorrupt.
func (s *Store) DecodeTree(ioStats *diskio.Stats, v graph.VertexID, t *quadtree.Tree) error {
	r := s.reader(ioStats, v)
	defer r.release()
	run, err := r.read(0, len(r.run))
	if err != nil {
		return err
	}
	blocks, minLambda, err := decompressRun(t.Blocks, run, int(s.counts[v]), s.g.Degree(v))
	if err != nil {
		return fmt.Errorf("store: vertex %d: %w", v, corrupt(err))
	}
	s.pager.pool.Decoded(ioStats, len(blocks))
	t.Blocks, t.MinLambda = blocks, minLambda
	t.Seal()
	return nil
}

// Touch touches every page of v's run in order, reading missed ones and
// decoding nothing — what a caller that still holds v's decoded tree does
// instead of decoding it again, so that pool recency, hits, misses and
// reads are the same either way.
func (s *Store) Touch(ioStats *diskio.Stats, v graph.VertexID) error {
	first, last, ok := s.runPages(v)
	for p := first; ok && p <= last; p++ {
		if err := s.touch(p, ioStats, nil, 0); err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns the block of v's quadtree whose cell contains code (ok
// false when none does), caching nothing. It touches, in order, the pages
// holding the run's header and those holding the bytes it decodes: from the
// restart entry in front of the block it needs through that block, at most
// restartEvery blocks. A failed check is an error wrapping ErrCorrupt.
func (s *Store) Lookup(ioStats *diskio.Stats, v graph.VertexID, code geom.Code) (b quadtree.Block, ok bool, err error) {
	r := s.reader(ioStats, v)
	var decoded int
	b, ok, decoded, err = lookupRun(&r, int(s.counts[v]), s.g.Degree(v), code)
	r.release()
	if err != nil {
		if err != r.fillErr { // a decoder check, not a page fill
			err = corrupt(err)
		}
		return quadtree.Block{}, false, fmt.Errorf("store: vertex %d: %w", v, err)
	}
	s.pager.pool.Decoded(ioStats, decoded)
	return b, ok, nil
}

// runReader hands the bytes of one run to its decoder as the decoder asks
// for them, page by page: it touches each page once, in order, and exposes
// no byte past the last page it touched. The bytes are copied, as each page
// is touched, to their offsets in pooled scratch that release hands back. A
// skipped page's bytes are never read: decoding only moves forward.
type runReader struct {
	s       *Store // nil: run is in memory, its "pages" ps bytes each
	ioStats *diskio.Stats
	run     []byte       // the run, each touched page's bytes at their offsets
	sc      *loadScratch // pooled scratch the run lives in; nil for an in-memory run
	lo, ps  int64        // the run's offset in its page space; the page size
	end     int          // the run's bytes up to end are at hand
	next    diskio.PageID
	fillErr error // the error of the page fill that failed, if one did
}

// runPages returns the range [first, last] of local pages v's run spans;
// ok is false when v has no blocks.
func (s *Store) runPages(v graph.VertexID) (first, last diskio.PageID, ok bool) {
	lo, hi, ps := s.runOffs[v], s.runOffs[v+1], int64(s.sb.pageSize)
	if lo == hi {
		return 0, 0, false
	}
	return diskio.PageID(lo / ps), diskio.PageID((hi - 1) / ps), true
}

// reader returns the runReader of v's run.
func (s *Store) reader(ioStats *diskio.Stats, v graph.VertexID) runReader {
	lo, hi := s.runOffs[v], s.runOffs[v+1]
	sc := loadPool.Get().(*loadScratch)
	sc.run = slices.Grow(sc.run[:0], int(hi-lo))[:hi-lo]
	return runReader{s: s, ioStats: ioStats, run: sc.run, sc: sc, lo: lo, ps: int64(s.sb.pageSize)}
}

// read touches the pages holding the run's bytes from offset from to to-1
// (to the run's end when to is past it) that are not at hand yet, and
// returns the run's bytes up to the end of the last page touched. A from
// past the bytes at hand skips the pages in between, never touching them.
func (r *runReader) read(from, to int) ([]byte, error) {
	to = min(to, len(r.run))
	if from >= r.end {
		p := (r.lo + int64(from)) / r.ps
		r.next, r.end = diskio.PageID(p), max(int(p*r.ps-r.lo), 0)
	}
	for r.end < to {
		base := int64(r.next) * r.ps
		end := min(int(base+r.ps-r.lo), len(r.run))
		if r.s != nil {
			if err := r.s.touch(r.next, r.ioStats, r.run[r.end:end], r.lo+int64(r.end)-base); err != nil {
				r.fillErr = err
				return nil, err
			}
		}
		r.next++
		r.end = end
	}
	return r.run[:r.end], nil
}

// release returns the gather scratch to its pool.
func (r *runReader) release() {
	if r.sc != nil {
		loadPool.Put(r.sc)
		r.sc = nil
	}
}

// touch reads local page p through the pool, copying its bytes from
// offset from on into dst; an empty dst (Touch) wants no bytes, so a hit
// returns at once. A miss reads the page into a free frame of the pool,
// which counts and times the read.
func (s *Store) touch(p diskio.PageID, ioStats *diskio.Stats, dst []byte, from int64) error {
	return s.pager.pool.Read(s.pageBase+p, ioStats, dst, int(from), func(frame []byte) ([]byte, error) {
		return s.readPage(p, frame)
	})
}

// readPage fills frame — reallocated when it is not one page long — with
// block page p by a ReadAt: a disk read, or a copy out of a Mapping. The
// page is checksum-verified before it is returned; a mismatch wraps
// ErrCorrupt.
func (s *Store) readPage(p diskio.PageID, frame []byte) ([]byte, error) {
	if len(frame) != s.sb.pageSize {
		frame = make([]byte, s.sb.pageSize)
	}
	off := s.sb.blockOff + int64(p)*int64(s.sb.pageSize)
	if _, err := s.ra.ReadAt(frame, off); err != nil {
		return frame, fmt.Errorf("store: reading block page %d: %w", p, err)
	}
	if sum := crc32.ChecksumIEEE(frame); sum != s.pageCRCs[p] {
		return frame, corrupt(fmt.Errorf("store: block page %d checksum mismatch: stored %08x computed %08x", p, s.pageCRCs[p], sum))
	}
	return frame, nil
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
