package silc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"silc/internal/partition"
	"silc/internal/store"
)

// ShardedBuildOptions configures BuildShardedIndex.
type ShardedBuildOptions struct {
	// Partitions is the cell count P. Each cell builds an independent SILC
	// index over its induced subnetwork — O(n/P) Dijkstra sources per cell
	// instead of O(n) overall, and Θ(n^1.5/√P) Morton blocks in total — and
	// a one-time boundary closure stitches cross-cell queries back to exact
	// answers. 0 and 1 both mean a single cell.
	Partitions int
	// Parallelism bounds the build workers (0 = all CPUs).
	Parallelism int
	// CacheFraction sizes the one LRU buffer pool OpenShardedIndex shares
	// across every cell store and the network, so it stays a property of
	// the whole database (default 0.05, the paper's setting), not of each
	// shard. In-RAM sharded indexes have no pool.
	CacheFraction float64
	// Mmap makes OpenShardedIndex access the file through one read-only
	// memory mapping shared by every cell store, falling back to positioned
	// reads on platforms without mmap.
	Mmap bool
}

// ShardedStats describes a completed sharded build: per-cell index
// statistics plus the partitioner's and closure's own accounting.
type ShardedStats = partition.Stats

// ShardedIndex is a partitioned SILC index: P per-cell shortest-path
// quadtree indexes plus an exact boundary-vertex distance closure. It
// answers exactly the same query surface as Index — through the same
// unified Engine handle (ShardedIndex.Engine) and the same generic code
// path: intra-cell queries in self-contained cells delegate straight to the
// cell index, and cross-cell queries route through the closure. Like Index,
// a ShardedIndex is read-only on the query path and safe for unlimited
// concurrent readers.
type ShardedIndex struct {
	net    *Network
	sx     *partition.Sharded
	eng    *Engine
	closer io.Closer // file behind a disk-backed sharded index; nil in-RAM
}

// newShardedIndex wires a built partition index to its unified query engine.
func newShardedIndex(net *Network, sx *partition.Sharded) *ShardedIndex {
	ix := &ShardedIndex{net: net, sx: sx}
	ix.eng = newEngine(net, sx)
	ix.eng.shard = ix
	ix.eng.pager = sx.StorePager()
	return ix
}

// Close releases the file behind a disk-backed sharded index (no-op
// otherwise). Queries must not run concurrently with or after Close.
func (sx *ShardedIndex) Close() error {
	if sx.closer != nil {
		return sx.closer.Close()
	}
	return nil
}

// Engine returns the unified context-aware query handle over this sharded
// index — the primary query surface of the package.
func (sx *ShardedIndex) Engine() *Engine { return sx.eng }

func shardedOptions(opts ShardedBuildOptions) partition.Options {
	return partition.Options{
		Partitions:    opts.Partitions,
		Parallelism:   opts.Parallelism,
		CacheFraction: opts.CacheFraction,
	}
}

// WritePaged serializes the sharded index in the page-aligned on-disk
// format (conventionally *.silcspg): the global network and partition
// metadata embedded, plus one complete paged store image per cell that
// OpenShardedIndex reads back on demand through one shared buffer pool.
func (sx *ShardedIndex) WritePaged(w io.Writer) (int64, error) { return sx.sx.WritePaged(w) }

// WriteFile writes the paged on-disk format to path atomically, like
// Index.WriteFile.
func (sx *ShardedIndex) WriteFile(path string) error {
	return store.WriteFileAtomic(path, sx.WritePaged)
}

// PagedImageInfo reports the section layout of the sharded paged image WritePaged would produce, without writing it.
func (sx *ShardedIndex) PagedImageInfo() (ImageInfo, error) {
	return sx.sx.PagedImageInfo()
}

// OpenShardedIndex opens a sharded paged file (ShardedIndex.WriteFile or
// silcbuild -partitions N -o). The file is self-contained; each
// cell opens its own on-disk store and all cells share one buffer pool
// sized by opts.CacheFraction of the whole database. Close the returned
// index to release the file.
func OpenShardedIndex(path string, opts ShardedBuildOptions) (*ShardedIndex, error) {
	if opts.Mmap {
		if data, closer, err := store.MapFile(path); err == nil {
			po := shardedOptions(opts)
			po.Mapped = data
			sx, err := partition.OpenPaged(bytes.NewReader(data), int64(len(data)), po)
			if err != nil {
				closer.Close()
				return nil, err
			}
			ix := newShardedIndex(&Network{g: sx.Network()}, sx)
			ix.closer = closer
			return ix, nil
		}
		// mmap unavailable: fall through to the positioned-read open.
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sx, err := partition.OpenPaged(f, info.Size(), shardedOptions(opts))
	if err != nil {
		f.Close()
		return nil, err
	}
	ix := newShardedIndex(&Network{g: sx.Network()}, sx)
	ix.closer = f
	return ix, nil
}

// OpenShardedIndexAt is OpenShardedIndex over an arbitrary ReaderAt; the
// caller owns ra's lifetime.
func OpenShardedIndexAt(ra io.ReaderAt, size int64, opts ShardedBuildOptions) (*ShardedIndex, error) {
	sx, err := partition.OpenPaged(ra, size, shardedOptions(opts))
	if err != nil {
		return nil, err
	}
	return newShardedIndex(&Network{g: sx.Network()}, sx), nil
}

// BuildShardedIndex partitions net into opts.Partitions spatial cells
// (kd-cut over vertex coordinates), builds one SILC index per cell, and
// computes the boundary closure. The network must be strongly connected —
// validated during the build even though individual cells may be internally
// disconnected.
func BuildShardedIndex(net *Network, opts ShardedBuildOptions) (*ShardedIndex, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	sx, err := partition.Build(net.g, shardedOptions(opts))
	if err != nil {
		return nil, err
	}
	return newShardedIndex(net, sx), nil
}

// Network returns the indexed network.
func (sx *ShardedIndex) Network() *Network { return sx.net }

// Stats returns the sharded build statistics.
func (sx *ShardedIndex) Stats() ShardedStats { return sx.sx.Stats() }

// NumPartitions returns the cell count P.
func (sx *ShardedIndex) NumPartitions() int { return sx.sx.NumPartitions() }

// PartitionOf returns the cell holding vertex v.
func (sx *ShardedIndex) PartitionOf(v VertexID) int { return sx.sx.CellOf(v) }

// IOStats returns cumulative traffic of the shared buffer pool (zeros when
// memory-resident).
func (sx *ShardedIndex) IOStats() IOStats { return sx.eng.IOStats() }

// ResetIOStats zeroes the shared pool's counters, keeping cache contents
// warm.
func (sx *ShardedIndex) ResetIOStats() { sx.eng.ResetIOStats() }

// sniffLayout reads an image's 8-byte magic and reports which paged layout
// it names; anything else, a short or empty input included, is ErrBadMagic.
func sniffLayout(ra io.ReaderAt) (sharded bool, err error) {
	var magic [8]byte
	n, err := ra.ReadAt(magic[:], 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return false, err
	}
	return store.Sniff(magic[:n])
}

// openPaged opens a paged image of either layout — by path when one is
// given (the index then owns the file and honours opts.Mmap), over ra
// otherwise — and cross-checks a supplied network against the embedded one.
func openPaged(sharded bool, path string, ra io.ReaderAt, size int64, net *Network, opts BuildOptions) (*Engine, error) {
	sopts := ShardedBuildOptions{CacheFraction: opts.CacheFraction, Mmap: opts.Mmap}
	var eng *Engine
	var err error
	switch {
	case sharded && path != "":
		eng, err = engineOf(OpenShardedIndex(path, sopts))
	case sharded:
		eng, err = engineOf(OpenShardedIndexAt(ra, size, sopts))
	case path != "":
		eng, err = engineOf(OpenIndex(path, opts))
	default:
		eng, err = engineOf(OpenIndexAt(ra, size, opts))
	}
	if err != nil {
		return nil, err
	}
	if got := eng.Network(); net != nil && (net.NumVertices() != got.NumVertices() || net.NumEdges() != got.NumEdges()) {
		eng.Close()
		return nil, fmt.Errorf("silc: paged index embeds a network of %d vertices and %d edges, supplied network has %d and %d",
			got.NumVertices(), got.NumEdges(), net.NumVertices(), net.NumEdges())
	}
	return eng, nil
}

func engineOf[T interface{ Engine() *Engine }](ix T, err error) (*Engine, error) {
	if err != nil {
		return nil, err
	}
	return ix.Engine(), nil
}

// OpenEngine opens a paged index file by path, sniffing which of the two
// image layouts it holds — monolithic (SILCPG2) or sharded (SILCSPG2) — and
// returns its unified query Engine; this is the opener the CLI tools use so
// one -index flag accepts both. The concrete index is reachable through Engine.Monolithic /
// Engine.Sharded. The image embeds its network, so net may be nil; a non-nil
// net is cross-checked against the embedded one. Anything else is rejected
// with ErrBadMagic; so is an image of the removed fixed-width format, with a
// note to rebuild it. The returned engine owns the file; Engine.Close
// releases it.
func OpenEngine(path string, net *Network, opts BuildOptions) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sharded, err := sniffLayout(f)
	f.Close() // the layout's opener takes its own handle or mapping
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return openPaged(sharded, path, nil, 0, net, opts)
}

// OpenEngineAt is OpenEngine over an arbitrary ReaderAt (a section of a
// larger file, an in-memory image); the caller owns ra's lifetime.
func OpenEngineAt(ra io.ReaderAt, size int64, net *Network, opts BuildOptions) (*Engine, error) {
	sharded, err := sniffLayout(ra)
	if err != nil {
		return nil, err
	}
	return openPaged(sharded, "", ra, size, net, opts)
}
