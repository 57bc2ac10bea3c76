package partition

import (
	"fmt"
	"time"

	"silc/internal/core"
	"silc/internal/diskio"
	"silc/internal/graph"
	"silc/internal/obs"
)

// Options configures Build.
type Options struct {
	// Partitions is the cell count P. At P ≤ 1 the index is one cell in
	// the caller's own vertex ids: the monolithic SILC index, with the
	// identity assignment, an empty closure and its image the monolithic
	// one (SILCPG3).
	Partitions int
	// Parallelism bounds the build workers (0 = all CPUs); it applies to the
	// per-cell Dijkstra sweeps and the closure computation alike.
	Parallelism int
	// CacheFraction sizes the LRU pool OpenPaged shares across every cell
	// store plus the network, so the cache fraction stays a property of the
	// whole database rather than of each shard; store.PoolPages is the
	// policy (default 0.05).
	CacheFraction float64

	// poolPages, when positive, replaces the CacheFraction sizing with an
	// absolute page capacity, so tests can force heavy eviction.
	poolPages int
}

// Stats describes a completed sharded build.
type Stats struct {
	Partitions       int
	Vertices         int
	Edges            int
	BoundaryVertices int
	CutEdges         int
	MinCellVertices  int
	MaxCellVertices  int
	// SelfContained counts cells where no boundary pair has a shorter path
	// through the outside; intra-cell queries there delegate straight to the
	// cell index with no closure work.
	SelfContained int
	// CellBlocks/CellBytes total the Morton-block storage across cells —
	// Θ(n^1.5/√P) versus the monolithic Θ(n^1.5).
	CellBlocks int64
	CellBytes  int64
	// ClosureBytes is the boundary distance+hop matrix footprint.
	ClosureBytes  int64
	TotalBytes    int64
	PartitionTime time.Duration
	CellBuildTime time.Duration
	ClosureTime   time.Duration
	BuildTime     time.Duration
	// Cells holds each cell index's own build statistics.
	Cells []core.BuildStats
}

// cell is one shard: the SILC index over its induced subnetwork
// (ix.Network()), in local vertex ids (Assignment.Verts maps them back).
type cell struct {
	ix   *core.Index
	seam *localCell // ix behind the CellIndex seam (bindCells)
}

// Sharded is a partitioned SILC index over one network: P per-cell indexes
// plus the boundary closure. Like the monolithic index its image is
// read-only on the query path — per-query state (including the
// gateway-closure cache) lives in core.QueryContext, and the one shared
// mutable piece, the destination-label tables, locks per cell — so any
// number of goroutines may query one shared Sharded concurrently.
type Sharded struct {
	g     *graph.Network
	asn   *Assignment
	cells []*cell
	// remote, when non-nil, replaces the in-process cells with one backend
	// per cell (NewRemote): the router-side half of a cluster deployment. All
	// per-cell work goes through qcell, which prefers it; remote != nil is
	// also how the routing layer knows that a call is a round trip (one-shot
	// races, expansion hints).
	remote        []RemoteCellIndex
	cl            *Closure
	selfContained []bool
	// pool is set by OpenPaged: the one buffer pool every cell store
	// reads through.
	pool  *diskio.Pool
	stats Stats
	// labels holds the destination-label rows (labels.go), one bounded table
	// per cell, shared by every query over in-process and remote cells alike.
	labels *labelTables
	// raceHinted and raceUsed back RaceHintStats; they only move over remote
	// cells.
	raceHinted, raceUsed obs.Counter
}

// Build partitions g into opt.Partitions cells, builds one SILC index per
// cell (each cell runs one Dijkstra per cell vertex over the cell subgraph
// only), computes the boundary closure, and validates that the network is
// strongly connected. The per-cell builds use AllowUnreachable — a cell's
// induced subgraph may legitimately be disconnected — and the closure
// restores global reachability. At P ≤ 1 it builds the one cell over g
// itself, strict, in g's own vertex ids (identityMeta), with no cut and no
// subnetwork copy: the monolithic index, to which every query goes straight.
func Build(g *graph.Network, opt Options) (*Sharded, error) {
	start := time.Now()
	p := opt.Partitions
	if p <= 1 {
		ix, err := core.Build(g, core.BuildOptions{Parallelism: opt.Parallelism})
		if err != nil {
			return nil, err
		}
		s := identityMeta(g).assemble([]*cell{{ix: ix}}, nil)
		s.stats.CellBuildTime = time.Since(start)
		s.stats.BuildTime = s.stats.CellBuildTime
		return s, nil
	}
	asn, err := KDCut(g, p)
	if err != nil {
		return nil, err
	}
	partitionTime := time.Since(start)

	cellStart := time.Now()
	cells := make([]*cell, p)
	for c := 0; c < p; c++ {
		sub, err := subnetwork(g, asn, c)
		if err != nil {
			return nil, fmt.Errorf("partition: cell %d subnetwork: %w", c, err)
		}
		ix, err := core.Build(sub, core.BuildOptions{Parallelism: opt.Parallelism, AllowUnreachable: true})
		if err != nil {
			return nil, fmt.Errorf("partition: cell %d index: %w", c, err)
		}
		cells[c] = &cell{ix: ix}
	}
	cellBuildTime := time.Since(cellStart)

	closureStart := time.Now()
	cl, err := buildClosure(g, asn, opt.Parallelism)
	if err != nil {
		return nil, err
	}
	if err := validateCoverage(g, asn, cl, cells); err != nil {
		return nil, err
	}
	s := &Sharded{g: g, asn: asn, cells: cells, cl: cl, labels: newLabelTables(p, cl.NB())}
	s.bindCells()
	s.selfContained = s.computeSelfContained()
	closureTime := time.Since(closureStart)

	s.stats = s.computeStats()
	s.stats.PartitionTime = partitionTime
	s.stats.CellBuildTime = cellBuildTime
	s.stats.ClosureTime = closureTime
	s.stats.BuildTime = time.Since(start)
	return s, nil
}

// computeSelfContained flags cells where every boundary pair's within-cell
// distance already equals the global closure distance — no shortcut through
// the outside exists, so intra-cell queries can bypass the closure entirely.
func (s *Sharded) computeSelfContained() []bool {
	out := make([]bool, s.asn.P)
	for c := range out {
		out[c] = true
		lo, hi := s.cl.Rows(int32(c))
		cx := s.cells[c]
	pairs:
		for i := lo; i < hi; i++ {
			bi := graph.VertexID(s.asn.LocalOf[s.cl.B[i]])
			for j := lo; j < hi; j++ {
				if i == j {
					continue
				}
				bj := graph.VertexID(s.asn.LocalOf[s.cl.B[j]])
				if s.cl.At(int(i), int(j)) < core.ExactDistance(cx.ix, nil, bi, bj) {
					out[c] = false
					break pairs
				}
			}
		}
	}
	return out
}

func (s *Sharded) computeStats() Stats {
	st := Stats{
		Partitions:       s.asn.P,
		Vertices:         s.g.NumVertices(),
		Edges:            s.g.NumEdges(),
		BoundaryVertices: s.cl.NB(),
		CutEdges:         s.asn.CutEdges,
		ClosureBytes:     s.cl.SizeBytes(),
		Cells:            make([]core.BuildStats, len(s.cells)),
	}
	for c, cx := range s.cells {
		cs := cx.ix.Stats()
		st.Cells[c] = cs
		st.CellBlocks += cs.TotalBlocks
		st.CellBytes += cs.TotalBytes
		if nv := cs.Vertices; c == 0 || nv < st.MinCellVertices {
			st.MinCellVertices = nv
		}
		if nv := cs.Vertices; nv > st.MaxCellVertices {
			st.MaxCellVertices = nv
		}
	}
	for _, sc := range s.selfContained {
		if sc {
			st.SelfContained++
		}
	}
	st.TotalBytes = st.CellBytes + st.ClosureBytes
	return st
}

// Network returns the full indexed network.
func (s *Sharded) Network() *graph.Network { return s.g }

// Pool returns the buffer pool every cell store shares, nil when
// memory-resident.
func (s *Sharded) Pool() *diskio.Pool { return s.pool }

// Stats returns the sharded build statistics.
func (s *Sharded) Stats() Stats { return s.stats }

// NumPartitions returns P.
func (s *Sharded) NumPartitions() int { return s.asn.P }

// CellOf returns the cell holding vertex v.
func (s *Sharded) CellOf(v graph.VertexID) int { return int(s.asn.CellOf[v]) }
