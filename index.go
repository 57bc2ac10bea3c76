package silc

import (
	"io"
	"time"

	"silc/internal/core"
	"silc/internal/store"
)

// BuildOptions configures BuildIndex.
type BuildOptions struct {
	// Parallelism sets the number of build workers (0 = all CPUs). The
	// build runs one Dijkstra per vertex, parallelized over sources.
	Parallelism int
	// CacheFraction sizes the LRU buffer pool of a disk-backed index
	// (OnDisk, OpenIndex, OpenEngine) as a fraction of its total pages
	// (default 0.05, the paper's setting); at 1 the pool holds as many
	// pages as the image has, which serves it resident. In-RAM indexes have
	// no pool.
	CacheFraction float64
	// ProximityRadius, when positive, bounds each vertex's quadtree to the
	// vertices within that network distance — the paper's location-based-
	// services approximation. It cuts build time and storage sharply for
	// local-search workloads; queries beyond the radius report Distance
	// +Inf, ShortestPath nil, and the interval [radius, +Inf), and
	// NearestNeighbors returns only in-range neighbors (possibly fewer
	// than k).
	ProximityRadius float64
	// OnDisk, when set, persists the built index to this path in the
	// page-aligned on-disk format and returns a genuinely disk-resident
	// index reading through the buffer pool: the in-RAM quadtrees are
	// released, pool misses become actual page reads, and resident memory
	// tracks CacheFraction rather than the index size. Close the returned
	// Index to release the file.
	OnDisk string
	// Compression selects the paged image encoding WritePaged, WriteFile,
	// and OnDisk emit — CompressionNone (fixed-width, the default) or
	// CompressionDelta (delta+varint runs, typically over 2x smaller).
	// Opening sniffs the format, so this knob never affects reads.
	Compression Compression
	// Mmap makes OpenIndex (and OnDisk's reopen) access the paged file
	// through a read-only memory mapping instead of positioned reads: warm
	// pages decode straight from the mapping with no syscall and no gather
	// copy. Falls back to positioned reads on platforms without mmap.
	Mmap bool
}

// BuildStats summarizes a completed index build.
type BuildStats = core.BuildStats

// Interval is a closed network-distance interval guaranteed to contain the
// exact network distance.
type Interval = core.Interval

// Index is a SILC index over one network: per-vertex shortest-path quadtrees
// supporting interval-based distance queries, progressive refinement, exact
// distances, and path retrieval. Every Index — including disk-backed ones —
// is safe for unlimited concurrent readers: the buffer pool is sharded and
// per-query statistics live in query-owned contexts, never on the Index.
//
// Queries run through the unified Engine handle (Index.Engine).
type Index struct {
	net    *Network
	ix     *core.Index
	eng    *Engine
	closer io.Closer // file behind a disk-backed index; nil when in-RAM
}

// newIndex wires a built core index to its unified query engine.
func newIndex(net *Network, cx *core.Index) *Index {
	ix := &Index{net: net, ix: cx}
	ix.eng = newEngine(net, cx)
	ix.eng.mono = ix
	return ix
}

// pagedIndexFrom wraps an opened paged store as a public Index. closer is
// released by Index.Close (nil when the caller owns the reader).
func pagedIndexFrom(st *store.Store, closer io.Closer) *Index {
	g := st.Graph()
	total, minBlocks, maxBlocks := st.BlockStats()
	cx := core.NewPagedIndex(core.PagedConfig{
		Graph:       g,
		Source:      st,
		Tracker:     st.Tracker(),
		Radius:      st.Radius(),
		Lenient:     st.Lenient(),
		Compression: st.Compression(),
		Stats: core.BuildStats{
			Vertices:    g.NumVertices(),
			Edges:       g.NumEdges(),
			TotalBlocks: total,
			TotalBytes:  total * 16,
			MinBlocks:   minBlocks,
			MaxBlocks:   maxBlocks,
		},
	})
	ix := newIndex(&Network{g: g}, cx)
	ix.closer = closer
	ix.eng.pager = st.Pager()
	return ix
}

// OpenIndex opens a paged index file (written by Index.WriteFile or
// silcbuild -o). The file embeds the network, so no separate
// network file is needed; the quadtrees stay on disk and queries
// read them page by page through an LRU buffer pool sized by
// opts.CacheFraction (default 5% of the database pages), the store's only
// cache: a lookup decodes the blocks it needs from the run's pages, keeping
// no decoded tree. Resident memory therefore tracks the pool capacity, not
// the index size, plus per-vertex bookkeeping (the extent table and, for
// PG2, one 16-byte restart point per 16 blocks). Close the
// returned Index to release the file.
func OpenIndex(path string, opts BuildOptions) (*Index, error) {
	open := store.OpenFile
	if opts.Mmap {
		open = store.OpenMapped
	}
	st, err := open(path, store.OpenOptions{CacheFraction: opts.CacheFraction})
	if err != nil {
		return nil, err
	}
	return pagedIndexFrom(st, st), nil
}

// OpenIndexAt is OpenIndex over an arbitrary ReaderAt (a section of a
// larger file, an in-memory image). The caller owns ra's lifetime.
func OpenIndexAt(ra io.ReaderAt, size int64, opts BuildOptions) (*Index, error) {
	st, err := store.Open(ra, size, store.OpenOptions{CacheFraction: opts.CacheFraction})
	if err != nil {
		return nil, err
	}
	return pagedIndexFrom(st, nil), nil
}

// Close releases the file behind a disk-backed index; it is a no-op for
// in-RAM indexes. Queries must not run concurrently with or after Close.
func (ix *Index) Close() error {
	if ix.closer != nil {
		return ix.closer.Close()
	}
	return nil
}

// Engine returns the unified context-aware query handle over this index —
// the primary query surface of the package.
func (ix *Index) Engine() *Engine { return ix.eng }

// BuildIndex precomputes the SILC index for net. The network must be
// strongly connected (use the generators, or validate custom networks).
func BuildIndex(net *Network, opts BuildOptions) (*Index, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	ix, err := core.Build(net.g, core.BuildOptions{
		Parallelism:     opts.Parallelism,
		ProximityRadius: opts.ProximityRadius,
		Compression:     opts.Compression,
	})
	if err != nil {
		return nil, err
	}
	if opts.OnDisk != "" {
		// Persist to the paged format and reopen disk-resident: the in-RAM
		// trees are dropped with the build-time index.
		if err := store.WriteFileAtomic(opts.OnDisk, ix.WritePaged); err != nil {
			return nil, err
		}
		return OpenIndex(opts.OnDisk, opts)
	}
	return newIndex(net, ix), nil
}

// Radius returns the proximity bound the index was built with (0 when
// unbounded).
func (ix *Index) Radius() float64 { return ix.ix.Radius() }

// WritePaged serializes the index in the page-aligned on-disk format
// (conventionally *.silcpg): network embedded, quadtree blocks packed onto
// checksummed pages that OpenIndex reads back on demand. This is the format
// to use when the index should not have to fit in memory.
func (ix *Index) WritePaged(w io.Writer) (int64, error) { return ix.ix.WritePaged(w) }

// WriteFile writes the paged on-disk format to path atomically: the image
// is fsynced under a temp name and renamed into place, so a crash or a
// failed write leaves whatever was at path before, never a torn file.
func (ix *Index) WriteFile(path string) error {
	return store.WriteFileAtomic(path, ix.WritePaged)
}

// PagedImageInfo reports the section layout and compression ratio of the
// paged image WritePaged would produce, without writing it. Under
// CompressionDelta this encodes every block run, so it costs about as much
// as the write itself.
func (ix *Index) PagedImageInfo() (ImageInfo, error) {
	p, err := ix.ix.PlanPaged()
	if err != nil {
		return ImageInfo{}, err
	}
	return p.Info(), nil
}

// Network returns the indexed network.
func (ix *Index) Network() *Network { return ix.net }

// Stats returns build statistics (vertices, Morton blocks, bytes, times).
func (ix *Index) Stats() BuildStats { return ix.ix.Stats() }

// NextHop returns the first vertex after u on the shortest path toward v.
func (ix *Index) NextHop(u, v VertexID) VertexID { return ix.ix.NextHop(u, v) }

// Refiner exposes progressive refinement directly: each Step tightens the
// distance interval by one hop of the underlying shortest path.
type Refiner struct {
	r *core.Refiner
}

// NewRefiner starts progressive refinement for the pair (src, dst).
func (ix *Index) NewRefiner(src, dst VertexID) *Refiner {
	return &Refiner{r: ix.ix.NewRefiner(src, dst)}
}

// Interval returns the current distance interval.
func (r *Refiner) Interval() Interval { return r.r.Interval() }

// Step refines once; it returns false when the interval is exact or the
// destination is out of a proximity-bounded index's range.
func (r *Refiner) Step() bool { return r.r.Step() }

// Done reports whether the interval is exact.
func (r *Refiner) Done() bool { return r.r.Done() }

// Steps returns the number of refinements performed.
func (r *Refiner) Steps() int { return r.r.Steps() }

// Via returns the last committed intermediate vertex and the exact distance
// from the source to it.
func (r *Refiner) Via() (VertexID, float64) { return r.r.Via() }

// OutOfRange reports whether the destination lies beyond a
// proximity-bounded index's radius; the interval is then [radius, +Inf) and
// cannot improve.
func (r *Refiner) OutOfRange() bool { return r.r.OutOfRange() }

// IOStats reports the buffer-pool traffic of a disk-backed index (zeros for
// in-RAM indexes, which have no pool).
type IOStats struct {
	PageHits   int64
	PageMisses int64
	// PageReads counts the actual page reads the paged store performed.
	// Misses on the network's adjacency pages (INE/IER expansion) are
	// counted but read nothing: the network is resident.
	PageReads int64
	// MeasuredIOTime is the wall-clock time spent in those reads.
	MeasuredIOTime time.Duration
}

// IOStats returns cumulative pool-wide buffer-pool statistics, summed over
// all queries since the last reset. Per-query traffic is reported on each
// Result's QueryStats.
func (ix *Index) IOStats() IOStats { return ix.eng.IOStats() }

// ResetIOStats zeroes the buffer-pool counters and the store's read
// counters, exactly like Engine.ResetIOStats. Cache contents stay warm.
func (ix *Index) ResetIOStats() { ix.eng.ResetIOStats() }
