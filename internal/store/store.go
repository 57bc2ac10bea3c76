package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"silc/internal/diskio"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
)

// OpenOptions configures Open.
type OpenOptions struct {
	// CacheFraction sizes the private buffer pool as a fraction of the
	// image's total pages (block pages + adjacency pages); default 0.05,
	// the paper's setting.
	CacheFraction float64
	// CachePages, when positive, overrides CacheFraction with an absolute
	// page capacity. Tests use it to force heavy eviction.
	CachePages int
	// Pager shares an externally owned pool across several stores — the
	// sharded open gives every cell store the same Pager so the cache
	// fraction stays a property of the whole database. When set, PageBase
	// is this store's first block-page id in the shared namespace and no
	// private pool or tracker is created.
	Pager    *Pager
	PageBase diskio.PageID
	// Mapped, when non-nil, is the whole image held in (usually mmap'd)
	// memory: page frames become subslices of it — no ReadAt syscall, no
	// gather copy — while pool accounting, eviction feedback, and CRC
	// verification on first touch keep working unchanged. The slice must
	// cover the image and stay valid until Close.
	Mapped []byte
}

// Pager owns one shared buffer pool and routes eviction feedback to the
// store owning each page-id range, so evicting a page actually releases its
// frame. Released frames of ReadAt-backed stores go onto the Pager's free
// list, from which the next miss in any registered store reads, so a full
// pool's frames are reused rather than reallocated. Register every store (Open does it) before
// queries start; registration is not synchronized with concurrent touches.
type Pager struct {
	pool   *diskio.Pool
	stores []*Store

	freeMu  sync.Mutex
	free    [][]byte // released page frames, no reader holds any of them
	maxFree int      // the pool's capacity, computed once
}

// NewPager returns a Pager over pool (which may be nil until SetPool).
func NewPager(pool *diskio.Pool) *Pager {
	pg := &Pager{}
	pg.SetPool(pool)
	return pg
}

// Pool returns the shared pool.
func (pg *Pager) Pool() *diskio.Pool { return pg.pool }

// SetPool installs the shared pool. The sharded open sizes the pool only
// after every cell store is open (capacity depends on their page counts);
// it must be called before the first query touches any registered store.
func (pg *Pager) SetPool(pool *diskio.Pool) {
	pg.pool = pool
	if pool != nil {
		pg.maxFree = pool.Capacity()
	}
}

// takeFrame returns a released frame of size bytes, or a new one when the
// free list has none. A frame of another size is dropped, not reused.
func (pg *Pager) takeFrame(size int) []byte {
	pg.freeMu.Lock()
	var b []byte
	if n := len(pg.free); n > 0 {
		b = pg.free[n-1]
		pg.free[n-1] = nil
		pg.free = pg.free[:n-1]
	}
	pg.freeMu.Unlock()
	if len(b) != size {
		b = make([]byte, size)
	}
	return b
}

// giveFrame puts a released frame on the free list, which holds at most
// the pool's capacity; a frame past that is left to the GC. The caller must
// be the frame's last holder: no store maps it and no reader copies from it.
func (pg *Pager) giveFrame(b []byte) {
	pg.freeMu.Lock()
	if len(pg.free) < pg.maxFree {
		pg.free = append(pg.free, b)
	}
	pg.freeMu.Unlock()
}

// Evict routes one evicted page id to the store owning it. Ids outside
// every store's block range (adjacency pages) need no release.
func (pg *Pager) Evict(id diskio.PageID) {
	for _, s := range pg.stores {
		if id >= s.pageBase && id < s.pageBase+diskio.PageID(s.sb.blockPages) {
			s.dropPage(id - s.pageBase)
			return
		}
	}
}

// ResetReadStats zeroes the real read counters of every registered store,
// so a measurement window's actual reads line up with a pool-counter reset.
func (pg *Pager) ResetReadStats() {
	for _, s := range pg.stores {
		s.ResetReadStats()
	}
}

// ReadStats sums the real read counters across registered stores.
func (pg *Pager) ReadStats() ReadStats {
	var total ReadStats
	for _, s := range pg.stores {
		rs := s.ReadStats()
		total.Reads += rs.Reads
		total.Bytes += rs.Bytes
		total.Time += rs.Time
		total.CRCTime += rs.CRCTime
		total.BlocksDecoded += rs.BlocksDecoded
	}
	return total
}

// Stores returns the registered stores, in registration order (cell
// order for sharded images). Callers must treat the slice as read-only.
func (pg *Pager) Stores() []*Store { return pg.stores }

// ReadStats counts the actual disk reads a store performed.
type ReadStats struct {
	Reads int64
	Bytes int64
	// Time is the wall-clock time spent inside ReadAt — the measured I/O
	// time. For mapped stores the subslice itself is free; the first-touch
	// cost is the checksum, reported separately as CRCTime.
	Time time.Duration
	// CRCTime is the wall-clock time spent checksum-verifying cold
	// pages — the dominant first-touch cost of the mmap page source.
	CRCTime time.Duration
	// BlocksDecoded counts quadtree blocks the decoder actually passed: a
	// tree decode or a vertex's first lookup passes its whole run, a lookup
	// of a validated run only the blocks its answer needed.
	BlocksDecoded int64
}

// Store is an open paged index image: the network and extent table resident
// (O(n+m)), the Morton-block pages demand-paged through the buffer pool,
// which is the store's one cache. Every pool miss is an actual ReadAt; every
// eviction returns the page's frame to the Pager, whose next miss reads into
// it, so resident page memory tracks the pool capacity rather than the
// index size. Nothing decoded is kept: a lookup or a tree decodes from the
// run's pages each time.
//
// A Store is safe for unlimited concurrent readers.
type Store struct {
	ra       io.ReaderAt
	closer   io.Closer
	sb       *superblock
	g        *graph.Network
	counts   []uint32
	mapped   []byte // whole image in memory; nil for ReadAt-backed stores
	layout   *diskio.Layout
	pageCRCs []uint32
	pageBase diskio.PageID
	pager    *Pager
	tracker  *diskio.Tracker // private-pool opens only; nil under a shared Pager

	mu     sync.RWMutex
	frames map[diskio.PageID][]byte // resident raw page bytes, keyed by local page

	// validated holds one bit per vertex, set once a full validating pass
	// of Lookup over its run succeeded, after it recorded the run's restart
	// points, and never cleared: the image is immutable and every page read
	// is CRC-checked, so the run's bytes stay the ones that passed. A lookup
	// of a validated run decodes only the blocks it needs.
	validated vertexBits
	// points is the restart slab, sized at Open: v's run's points are
	// points[pointsAt[v]:pointsAt[v+1]], restartPoints(counts[v]) of them.
	points   []restart
	pointsAt []int

	reads     atomic.Int64
	readBytes atomic.Int64
	readNanos atomic.Int64
	crcNanos  atomic.Int64
	decoded   atomic.Int64 // quadtree blocks passed through the decoder
}

// loadScratch carries the gather buffer of one run read (a tree decode or
// a lookup): the contiguous run handed to the decoder. It is scratch
// — the decoder copies values out — so it recycles through a pool instead
// of being reallocated per read.
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
	if opts.Mapped != nil && int64(len(opts.Mapped)) < sb.imageSize {
		return nil, fmt.Errorf("store: mapped image of %d bytes shorter than recorded size %d", len(opts.Mapped), sb.imageSize)
	}
	netBuf, err := readSection(ra, sb.netOff, NetworkSectionSize(sb.n, sb.m))
	if err != nil {
		return nil, fmt.Errorf("store: reading network section: %w", err)
	}
	g, err := DecodeNetworkSection(netBuf, sb.n, sb.m)
	if err != nil {
		return nil, err
	}
	extBuf, err := readSection(ra, sb.extentOff, extentSize(sb.n))
	if err != nil {
		return nil, fmt.Errorf("store: reading extent section: %w", err)
	}
	counts, lens, err := decodeExtentSection(extBuf, sb.n, sb.totalBlocks, sb.blockBytes)
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
	// The page layout maps each vertex's run to its pages, in bytes. The run
	// lengths sum to the block section's byte count, so the layout spans
	// exactly its blockPages.
	layout := diskio.NewLayout(lens, 1, sb.pageSize)

	pointsAt := make([]int, sb.n+1)
	for v, count := range counts {
		pointsAt[v+1] = pointsAt[v] + restartPoints(int(count))
	}
	s := &Store{
		ra:        ra,
		sb:        sb,
		g:         g,
		counts:    counts,
		mapped:    opts.Mapped,
		layout:    layout,
		pageCRCs:  pageCRCs,
		frames:    make(map[diskio.PageID][]byte),
		validated: newVertexBits(sb.n),
		points:    make([]restart, pointsAt[sb.n]),
		pointsAt:  pointsAt,
	}
	if opts.Pager != nil {
		s.pager = opts.Pager
		s.pageBase = opts.PageBase
	} else {
		degrees := make([]int, sb.n)
		for v := 0; v < sb.n; v++ {
			degrees[v] = g.Degree(graph.VertexID(v))
		}
		adjPages := diskio.NewLayout(degrees, diskio.AdjacencyEntrySize, diskio.DefaultPageSize).TotalPages()
		capacity := opts.CachePages
		if capacity <= 0 {
			fraction := opts.CacheFraction
			if fraction <= 0 {
				fraction = 0.05
			}
			capacity = int(float64(sb.blockPages+adjPages) * fraction)
		}
		pool := diskio.NewPool(capacity, diskio.DefaultPoolShards)
		s.pager = NewPager(pool)
		s.tracker = diskio.NewStoreTracker(sb.blockPages, degrees, pool)
		s.tracker.SetEvictionHandler(s.pager.Evict)
	}
	s.pager.stores = append(s.pager.stores, s)
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

// Graph returns the network rebuilt from the image's network section.
func (s *Store) Graph() *graph.Network { return s.g }

// Radius returns the recorded proximity bound (0 = unbounded).
func (s *Store) Radius() float64 { return s.sb.radius }

// Lenient reports whether the index was built with AllowUnreachable.
func (s *Store) Lenient() bool { return s.sb.lenient }

// Compression returns CompressionDelta, the encoding of every image. It
// stays only because the benchmark module compiles against it.
func (s *Store) Compression() Compression { return CompressionDelta }

// Mapped reports whether page frames alias an in-memory image instead of
// being read through ReadAt.
func (s *Store) Mapped() bool { return s.mapped != nil }

// Tracker returns the store's private tracker (nil when the store shares a
// Pager owned by someone else).
func (s *Store) Tracker() *diskio.Tracker { return s.tracker }

// Pager returns the pager routing this store's evictions.
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

// BlockCount implements core.TreeSource.
func (s *Store) BlockCount(v graph.VertexID) int { return int(s.counts[v]) }

// ResidentPages returns the number of page frames currently held in
// memory — bounded by the pool capacity (plus transient staleness under
// concurrency).
func (s *Store) ResidentPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.frames)
}

// ResetReadStats zeroes the actual read counters (cache contents stay).
func (s *Store) ResetReadStats() {
	s.reads.Store(0)
	s.readBytes.Store(0)
	s.readNanos.Store(0)
	s.crcNanos.Store(0)
	s.decoded.Store(0)
}

// ReadStats returns the actual read counters.
func (s *Store) ReadStats() ReadStats {
	return ReadStats{
		Reads:         s.reads.Load(),
		Bytes:         s.readBytes.Load(),
		Time:          time.Duration(s.readNanos.Load()),
		CRCTime:       time.Duration(s.crcNanos.Load()),
		BlocksDecoded: s.decoded.Load(),
	}
}

// Tree implements core.TreeSource: it decodes v's shortest-path quadtree
// into a new tree. Nothing is cached: every call reads the run's pages
// through the pool and decodes it again.
func (s *Store) Tree(ioStats *diskio.Stats, v graph.VertexID) (*quadtree.Tree, error) {
	t := new(quadtree.Tree)
	if err := s.DecodeTree(ioStats, v, t); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeTree implements core.TreeSource: it decodes v's whole run into t,
// reusing t's block storage; on an error t's blocks are unspecified. Page
// traffic is charged to the shared pool and to ioStats (nil = untracked);
// misses perform real reads.
func (s *Store) DecodeTree(ioStats *diskio.Stats, v graph.VertexID, t *quadtree.Tree) error {
	run, sc, err := s.runBytes(ioStats, v)
	if err != nil {
		return err
	}
	blocks, minLambda, err := decompressRun(t.Blocks, run, int(s.counts[v]), s.g.Degree(v))
	releaseRun(sc, run)
	if err != nil {
		return fmt.Errorf("store: vertex %d: %w", v, err)
	}
	s.chargeDecode(ioStats, len(blocks))
	t.Blocks, t.MinLambda = blocks, minLambda
	t.Seal()
	return nil
}

// Touch implements core.TreeSource: it touches every page of v's run in
// order, reading missed ones and decoding nothing — what a caller that
// still holds v's decoded tree does instead of decoding it again, so that
// pool recency, hits, misses and reads are the same either way.
func (s *Store) Touch(ioStats *diskio.Stats, v graph.VertexID) error {
	first, last, ok := s.layout.OwnerPages(int(v))
	for p := first; ok && p <= last; p++ {
		if _, err := s.touch(p, ioStats, nil, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// Lookup implements core.TreeSource: it returns the block of v's quadtree
// whose cell contains code (ok false when none does), touching the pages a
// Tree call touches, in the same order, and caching nothing. Until a full
// validating pass over v's run succeeded, the decoder passes over the whole
// run; after that it decodes only the blocks the answer needs, at most
// restartEvery, from a restart point the first pass recorded.
func (s *Store) Lookup(ioStats *diskio.Stats, v graph.VertexID, code geom.Code) (quadtree.Block, bool, error) {
	run, sc, err := s.runBytes(ioStats, v)
	if err != nil {
		return quadtree.Block{}, false, err
	}
	validated := s.validated.has(v)
	points := s.points[s.pointsAt[v]:s.pointsAt[v+1]]
	b, ok, decoded, err := lookupRun(run, int(s.counts[v]), s.g.Degree(v), code, points, validated)
	releaseRun(sc, run)
	if err != nil {
		return quadtree.Block{}, false, fmt.Errorf("store: vertex %d: %w", v, err)
	}
	if !validated {
		s.validated.set(v)
	}
	s.chargeDecode(ioStats, decoded)
	return b, ok, nil
}

// chargeDecode counts blocks passed through the decoder.
func (s *Store) chargeDecode(ioStats *diskio.Stats, blocks int) {
	s.decoded.Add(int64(blocks))
	if ioStats != nil {
		ioStats.BlocksDecoded += int64(blocks)
	}
}

// runBytes touches every page of v's run in order, reading missed ones, and
// returns the run's bytes: straight out of the mapping when one is attached
// (the run is contiguous there, so no gather copy happens), otherwise
// gathered into pooled scratch page by page as each page is touched, which
// the caller hands back through releaseRun once it has decoded the run.
func (s *Store) runBytes(ioStats *diskio.Stats, v graph.VertexID) ([]byte, *loadScratch, error) {
	first, last, ok := s.layout.OwnerPages(int(v))
	lo, hi := s.layout.EntryRange(int(v))
	if s.mapped != nil {
		if err := s.Touch(ioStats, v); err != nil {
			return nil, nil, err
		}
		return s.mapped[s.sb.blockOff+lo : s.sb.blockOff+hi], nil, nil
	}
	sc := loadPool.Get().(*loadScratch)
	run := sc.run[:0]
	ps := int64(s.sb.pageSize)
	for p := first; ok && p <= last; p++ {
		base := int64(p) * ps
		var err error
		if run, err = s.touch(p, ioStats, run, max(lo, base)-base, min(hi, base+ps)-base); err != nil {
			releaseRun(sc, run)
			return nil, nil, err
		}
	}
	return run, sc, nil
}

// releaseRun returns runBytes' gather scratch (nil for a mapped run) to its
// pool.
func releaseRun(sc *loadScratch, run []byte) {
	if sc == nil {
		return
	}
	sc.run = run // keep the grown capacity for the next gather
	loadPool.Put(sc)
}

// touch charges local page p to the pool and processes eviction feedback;
// on a miss it reads the page and publishes its frame. It appends bytes
// [from, to) of the page to dst and returns the result; an empty range
// (Touch) wants no bytes, so a hit returns at once. The copy is made
// while the frame cannot be recycled: on a hit under s.mu's read lock,
// which dropPage must acquire to unmap it, on a miss from the private frame
// before it is published.
func (s *Store) touch(p diskio.PageID, ioStats *diskio.Stats, dst []byte, from, to int64) ([]byte, error) {
	hit, evicted, hasEvict := s.pager.pool.TouchEvict(s.pageBase+p, ioStats)
	if hasEvict {
		s.pager.Evict(evicted)
	}
	if hit {
		if from == to {
			return dst, nil
		}
		s.mu.RLock()
		b := s.frames[p]
		if b != nil {
			dst = append(dst, b[from:to]...)
		}
		s.mu.RUnlock()
		if b != nil {
			return dst, nil
		}
		// Frame lost to a concurrent eviction between the pool touch and
		// here — fall through to a real read.
	}
	b, err := s.readPage(p)
	if err != nil {
		return dst, err
	}
	if ioStats != nil {
		ioStats.Reads++
	}
	dst = append(dst, b[from:to]...)
	s.mu.Lock()
	old := s.frames[p]
	s.frames[p] = b
	s.mu.Unlock()
	s.releaseFrame(old)
	return dst, nil
}

// readPage materializes one block page: an actual disk read, into a frame
// an eviction released when the Pager has one, for ReadAt-backed stores; a
// checksum-verified subslice of the mapping for mapped ones. Either way the
// page counts as one read in ReadStats — for a mapping, "read" means
// first-touch verification, the moment the page faults in. The frame is
// the caller's alone until it publishes it.
func (s *Store) readPage(p diskio.PageID) ([]byte, error) {
	off := s.sb.blockOff + int64(p)*int64(s.sb.pageSize)
	var buf []byte
	start := time.Now()
	if s.mapped != nil {
		buf = s.mapped[off : off+int64(s.sb.pageSize)]
	} else {
		buf = s.pager.takeFrame(s.sb.pageSize)
		if _, err := s.ra.ReadAt(buf, off); err != nil {
			s.releaseFrame(buf)
			return nil, fmt.Errorf("store: reading block page %d: %w", p, err)
		}
	}
	read := time.Now() // the read's end is the checksum's start
	s.readNanos.Add(read.Sub(start).Nanoseconds())
	sum := crc32.ChecksumIEEE(buf)
	s.crcNanos.Add(time.Since(read).Nanoseconds())
	s.reads.Add(1)
	s.readBytes.Add(int64(s.sb.pageSize))
	if sum != s.pageCRCs[p] {
		s.releaseFrame(buf)
		return nil, fmt.Errorf("store: block page %d checksum mismatch: stored %08x computed %08x", p, s.pageCRCs[p], sum)
	}
	return buf, nil
}

// releaseFrame hands a frame no reader can reach any more to the Pager. A
// mapped store's frames alias the mapping and are never reused.
func (s *Store) releaseFrame(b []byte) {
	if b != nil && s.mapped == nil {
		s.pager.giveFrame(b)
	}
}

// dropPage releases the frame of local page p — the real-memory
// counterpart of a pool eviction. The frame goes back to the Pager only
// once it is unmapped, so no reader is still copying from it.
func (s *Store) dropPage(p diskio.PageID) {
	s.mu.Lock()
	b := s.frames[p]
	delete(s.frames, p)
	s.mu.Unlock()
	s.releaseFrame(b)
}

// vertexBits holds one atomic bit per vertex.
type vertexBits []atomic.Uint64

func newVertexBits(n int) vertexBits { return make(vertexBits, (n+63)/64) }

func (b vertexBits) set(v graph.VertexID)      { b[v>>6].Or(1 << (v & 63)) }
func (b vertexBits) has(v graph.VertexID) bool { return b[v>>6].Load()&(1<<(v&63)) != 0 }

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
