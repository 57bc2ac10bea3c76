package bench

import (
	"fmt"
	"io"
	"time"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/partition"
)

// ShardedComparison measures the sharded index against the monolithic one
// on the same network: build wall time and index storage — the SH
// experiment. Query throughput is the end-to-end benchmark's job.
type ShardedComparison struct {
	Rows, Cols int
	Vertices   int
	Edges      int
	Partitions int

	MonoBuild  time.Duration
	MonoBlocks int64
	MonoBytes  int64

	ShardBuild        time.Duration
	ShardPartition    time.Duration
	ShardCells        time.Duration
	ShardClosure      time.Duration
	ShardBlocks       int64
	ShardCellBytes    int64
	ShardClosureBytes int64
	ShardBytes        int64
	Boundary          int
	CutEdges          int
	SelfContained     int
}

// CompareSharded builds both indexes over one rows×cols road network.
func CompareSharded(rows, cols, partitions int, seed int64) (*ShardedComparison, error) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{
		Rows: rows, Cols: cols, Seed: seed, WeightNoise: 0.1,
	})
	if err != nil {
		return nil, err
	}
	cmp := &ShardedComparison{
		Rows: rows, Cols: cols,
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		Partitions: partitions,
	}

	mono, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	ms := mono.Stats()
	cmp.MonoBuild = ms.BuildTime
	cmp.MonoBlocks = ms.TotalBlocks
	cmp.MonoBytes = ms.TotalBytes

	shard, err := partition.Build(g, partition.Options{Partitions: partitions})
	if err != nil {
		return nil, err
	}
	ss := shard.Stats()
	cmp.ShardBuild = ss.BuildTime
	cmp.ShardPartition = ss.PartitionTime
	cmp.ShardCells = ss.CellBuildTime
	cmp.ShardClosure = ss.ClosureTime
	cmp.ShardBlocks = ss.CellBlocks
	cmp.ShardCellBytes = ss.CellBytes
	cmp.ShardClosureBytes = ss.ClosureBytes
	cmp.ShardBytes = ss.TotalBytes
	cmp.Boundary = ss.BoundaryVertices
	cmp.CutEdges = ss.CutEdges
	cmp.SelfContained = ss.SelfContained

	return cmp, nil
}

// RenderSharded prints the SH comparison table.
func RenderSharded(w io.Writer, c *ShardedComparison) {
	fmt.Fprintf(w, "SH — Sharded vs monolithic index (beyond the paper: P=%d partitions)\n", c.Partitions)
	fmt.Fprintf(w, "network: %dx%d lattice, %d vertices, %d edges\n",
		c.Rows, c.Cols, c.Vertices, c.Edges)
	fmt.Fprintf(w, "%-12s %14s %14s %14s\n", "index", "build", "Morton blocks", "index bytes")
	fmt.Fprintf(w, "%-12s %14s %14d %14s\n", "monolithic",
		c.MonoBuild.Round(time.Millisecond), c.MonoBlocks, byteCount(c.MonoBytes))
	fmt.Fprintf(w, "%-12s %14s %14d %14s\n", fmt.Sprintf("sharded P=%d", c.Partitions),
		c.ShardBuild.Round(time.Millisecond), c.ShardBlocks, byteCount(c.ShardBytes))
	fmt.Fprintf(w, "sharded detail: partition %v + cells %v + closure %v; %d boundary vertices, %d cut edges, %d/%d cells self-contained\n",
		c.ShardPartition.Round(time.Millisecond), c.ShardCells.Round(time.Millisecond),
		c.ShardClosure.Round(time.Millisecond), c.Boundary, c.CutEdges, c.SelfContained, c.Partitions)
	fmt.Fprintf(w, "sharded storage: %s cell blocks + %s closure; build speedup %.2fx, block-storage ratio %.2fx\n\n",
		byteCount(c.ShardCellBytes), byteCount(c.ShardClosureBytes),
		ratio(c.MonoBuild.Seconds(), c.ShardBuild.Seconds()),
		ratio(float64(c.MonoBlocks), float64(c.ShardBlocks)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
