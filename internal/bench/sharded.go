package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/partition"
)

// ShardedComparison measures the sharded index against the monolithic one
// on the same network and workload: build wall time, index storage, and
// parallel kNN query throughput — the SH experiment.
type ShardedComparison struct {
	Rows, Cols int
	Vertices   int
	Edges      int
	Partitions int
	Queries    int
	Workers    int

	MonoBuild  time.Duration
	MonoBlocks int64
	MonoBytes  int64
	MonoQPS    float64

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
	ShardQPS          float64
}

// CompareSharded builds both indexes over one rows×cols road network and
// replays an identical kNN workload through each at full parallelism.
func CompareSharded(rows, cols, partitions, queries int, seed int64) (*ShardedComparison, error) {
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
		Queries:    queries,
		Workers:    runtime.GOMAXPROCS(0),
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

	env := &Env{G: g, Ix: mono}
	w := env.NewThroughputWorkload(queries, 0.05, 10, seed+1)
	// Both indexes are memory-resident: there is no pool to start cold.
	qps := func(ix core.QueryIndex) (float64, error) {
		pts, err := ThroughputSweep(func() (core.QueryIndex, error) { return ix, nil }, w, []int{cmp.Workers})
		if err != nil {
			return 0, err
		}
		return pts[0].QPS, nil
	}
	if cmp.MonoQPS, err = qps(mono); err != nil {
		return nil, err
	}
	if cmp.ShardQPS, err = qps(shard); err != nil {
		return nil, err
	}
	return cmp, nil
}

// RenderSharded prints the SH comparison table.
func RenderSharded(w io.Writer, c *ShardedComparison) {
	fmt.Fprintf(w, "SH — Sharded vs monolithic index (beyond the paper: P=%d partitions)\n", c.Partitions)
	fmt.Fprintf(w, "network: %dx%d lattice, %d vertices, %d edges; %d kNN queries at %d workers\n",
		c.Rows, c.Cols, c.Vertices, c.Edges, c.Queries, c.Workers)
	fmt.Fprintf(w, "%-12s %14s %14s %14s %12s\n", "index", "build", "Morton blocks", "index bytes", "kNN QPS")
	fmt.Fprintf(w, "%-12s %14s %14d %14s %12.0f\n", "monolithic",
		c.MonoBuild.Round(time.Millisecond), c.MonoBlocks, byteCount(c.MonoBytes), c.MonoQPS)
	fmt.Fprintf(w, "%-12s %14s %14d %14s %12.0f\n", fmt.Sprintf("sharded P=%d", c.Partitions),
		c.ShardBuild.Round(time.Millisecond), c.ShardBlocks, byteCount(c.ShardBytes), c.ShardQPS)
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
