package silc

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"silc/internal/core"
	"silc/internal/partition"
	"silc/internal/store"
)

// BuildOptions configures Build, OpenEngine and OpenEngineAt. Partitions
// and Parallelism shape a build; CacheFraction applies only when an image
// is opened, and a build ignores it.
type BuildOptions struct {
	// Partitions is the spatial cell count P. At 0 or 1 Build makes one
	// monolithic index. Above 1 each cell builds an independent SILC index
	// over its induced subnetwork — O(n/P) Dijkstra sources per cell
	// instead of O(n) overall, and Θ(n^1.5/√P) Morton blocks in total — and
	// a one-time boundary closure stitches cross-cell queries back to exact
	// answers.
	Partitions int
	// Parallelism sets the number of build workers (0 = all CPUs). The
	// build runs one Dijkstra per vertex, parallelized over sources.
	Parallelism int
	// CacheFraction sizes the LRU buffer pool of an opened image as a
	// fraction of its block pages, the pages a query reads (default 0.05,
	// the paper's setting); a sharded image shares one pool across every
	// cell, so the fraction is of every cell's block pages. At 1 or above
	// the pool holds as many pages as the image has, which serves it
	// resident. NaN, infinite and negative fractions make the open fail.
	// Open-time only: in-RAM indexes have no pool.
	CacheFraction float64
}

// BuildStats summarizes a completed index build.
type BuildStats = core.BuildStats

// ShardedStats describes a partitioned build: per-cell index statistics
// plus the partitioner's and closure's own accounting.
type ShardedStats = partition.Stats

// IndexStats describes the index behind an Engine. BuildStats counts the
// Morton-block storage; on a partitioned engine it totals every cell, and
// Sharded carries the rest — per-cell statistics (MinBlocks and MaxBlocks
// among them), boundary and closure. Sharded is nil on a monolithic engine.
type IndexStats struct {
	BuildStats
	Sharded *ShardedStats
}

// ImageInfo describes the section layout of a paged index image — what
// WritePaged and WriteFile report and silcbuild prints as its size table.
type ImageInfo = store.ImageInfo

// Interval is a closed network-distance interval guaranteed to contain the
// exact network distance.
type Interval = core.Interval

// Build precomputes the SILC index for net and returns its Engine: one
// monolithic index when opts.Partitions ≤ 1, else a partitioned one (kd-cut
// over vertex coordinates, one SILC index per cell, and the boundary
// closure). The network must be strongly connected — validated during the
// build even though individual cells may be internally disconnected.
// Persist the result with WriteFile and serve it from disk with OpenEngine.
func Build(net *Network, opts BuildOptions) (*Engine, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	if opts.Partitions <= 1 {
		ix, err := core.Build(net.g, core.BuildOptions{Parallelism: opts.Parallelism})
		if err != nil {
			return nil, err
		}
		return newEngine(net, ix, nil), nil
	}
	sx, err := partition.Build(net.g, partition.Options{
		Partitions:  opts.Partitions,
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return newEngine(net, sx, nil), nil
}

// OpenEngine opens a paged index file by path — written by Engine.WriteFile
// or silcbuild -o — sniffing which of the two image layouts it holds,
// monolithic (SILCPG3) or sharded (SILCSPG3). The image embeds its network,
// so net may be nil; a non-nil net is cross-checked against the embedded
// one. Anything else is rejected with ErrBadMagic; so is an image of a
// removed format (fixed-width, or without restart tables), with a note to
// rebuild it.
//
// The quadtrees stay on disk: queries read them page by page through one
// LRU buffer pool sized by opts.CacheFraction (default 5% of the database
// pages), the store's only cache — a lookup reads the run's header and the
// pages of the blocks it decodes, from the restart entry in the image in
// front of its block, and keeps no decoded tree. The file is mapped
// read-only (one mapping shared by every cell of a sharded image): a pool
// miss copies its page out of the mapping into a recycled private frame and
// checks the frame's CRC before anything decodes it — no syscall per miss.
// Where mapping fails, misses are positioned reads of the file into the
// same frames. A page that no longer matches its CRC, or a fault copying
// out of the mapping (the file was truncated under the engine), is an
// error wrapping ErrCorruptImage on its next miss, not a crash.
//
// The Go heap therefore holds the pool plus O(n) bookkeeping (the embedded
// network and the extent table), not the index size: TestPagedHeapResident
// measures about 140 B per vertex outside the pool on road maps from 48×48
// to 96×96. The process's resident set also counts the pages of the mapping
// it has touched, which the kernel may drop at any time. The returned
// engine owns the file; Engine.Close releases it.
func OpenEngine(path string, net *Network, opts BuildOptions) (*Engine, error) {
	if data, unmap, err := store.MapFile(path); err == nil {
		return openOwned(path, store.Mapping(data), int64(len(data)), unmap, net, opts)
	}
	// mmap unavailable: positioned reads.
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return openOwned(path, f, info.Size(), f, net, opts)
}

// openOwned opens the image behind closer and hands the engine ownership of
// it, releasing it instead when the open fails.
func openOwned(path string, ra io.ReaderAt, size int64, closer io.Closer, net *Network, opts BuildOptions) (*Engine, error) {
	eng, err := OpenEngineAt(ra, size, net, opts)
	if err != nil {
		closer.Close()
		if errors.Is(err, ErrBadMagic) {
			err = fmt.Errorf("%s: %w", path, err)
		}
		return nil, err
	}
	eng.closer = closer
	return eng, nil
}

// OpenEngineAt is OpenEngine over an arbitrary ReaderAt (a section of a
// larger file, an in-memory image): every pool miss is a ReadAt into a
// recycled private frame, checked against its CRC before anything decodes
// it. The caller owns ra's lifetime.
func OpenEngineAt(ra io.ReaderAt, size int64, net *Network, opts BuildOptions) (*Engine, error) {
	var magic [8]byte
	n, err := ra.ReadAt(magic[:], 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	sharded, err := store.Sniff(magic[:n])
	if err != nil {
		return nil, err
	}
	var eng *Engine
	if sharded {
		sx, err := partition.OpenPaged(ra, size, partition.Options{CacheFraction: opts.CacheFraction})
		if err != nil {
			return nil, err
		}
		eng = newEngine(&Network{g: sx.Network()}, sx, sx.StorePager())
	} else {
		st, err := store.Open(ra, size, store.OpenOptions{CacheFraction: opts.CacheFraction})
		if err != nil {
			return nil, err
		}
		eng = newEngine(&Network{g: st.Graph()}, core.NewPagedIndex(core.PagedConfig{Source: st}), st.Pager())
	}
	if got := eng.Network(); net != nil && (net.NumVertices() != got.NumVertices() || net.NumEdges() != got.NumEdges()) {
		return nil, fmt.Errorf("silc: paged index embeds a network of %d vertices and %d edges, supplied network has %d and %d",
			got.NumVertices(), got.NumEdges(), net.NumVertices(), net.NumEdges())
	}
	return eng, nil
}

// Refiner exposes progressive refinement directly: each Step tightens the
// distance interval by one hop of the underlying shortest path (on a
// partitioned engine, one step of the cross-cell route race).
type Refiner struct {
	r     core.DistanceRefiner
	mono  bool // the refiner walks one quadtree path in global vertex ids
	steps int
}

// Interval returns the current distance interval.
func (r *Refiner) Interval() Interval { return r.r.Interval() }

// Step refines once; it returns false when the interval is exact.
func (r *Refiner) Step() bool {
	if r.r.Done() {
		return false
	}
	r.steps++
	return r.r.Step()
}

// Done reports whether the interval is exact.
func (r *Refiner) Done() bool { return r.r.Done() }

// Steps returns the number of refinements performed.
func (r *Refiner) Steps() int { return r.steps }

// Via returns the last committed intermediate vertex and the exact distance
// from the source to it. ok is false on a partitioned engine, whose
// refiners race several routes and commit to no single path vertex.
func (r *Refiner) Via() (v VertexID, exact float64, ok bool) {
	if !r.mono {
		return NoVertex, 0, false
	}
	v, exact = r.r.(*core.Refiner).Via()
	return v, exact, true
}

// IOStats reports the buffer-pool traffic of a disk-backed index (zeros for
// in-RAM indexes, which have no pool).
type IOStats struct {
	PageHits   int64
	PageMisses int64
	// PageReads counts the actual page reads the paged store performed:
	// missed frames filled by a positioned read or a copy out of the
	// image's mapping. Every page the pool counts is a block page the store
	// reads, so reads follow misses; the graph-expansion baselines (INE,
	// IER) run on the resident network and charge no page at all.
	PageReads int64
	// MeasuredIOTime is the wall-clock time spent in those reads.
	MeasuredIOTime time.Duration
}
