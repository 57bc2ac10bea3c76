// Command silcbuild builds a SILC index over a network and reports its
// storage statistics (the paper's O(N√N) Morton-block accounting).
//
// Usage:
//
//	silcbuild -net network.txt
//	silcbuild -rows 96 -cols 96 -seed 2008   # generate, then build
//	silcbuild -rows 128 -cols 128 -o idx.silcpg
//	                      # page-aligned on-disk index, network embedded,
//	                      # delta+varint block pages (SILCPG2):
//	                      # open with silc.OpenEngine / silcserve -index
//	silcbuild -rows 256 -cols 256 -partitions 8 -o idx.silcspg   # sharded build
//
// With -partitions N > 1 the build is sharded: the network splits into N
// spatial cells, each cell builds its own SILC index over only its
// subnetwork (sum of cell builds runs far fewer Dijkstra-vertex pairs than
// the monolithic build), and the boundary closure stitches cross-cell
// queries back to exact answers.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"silc"
)

func main() {
	var (
		netFile    = flag.String("net", "", "network file (generated if empty)")
		rows       = flag.Int("rows", 64, "generated lattice rows")
		cols       = flag.Int("cols", 64, "generated lattice cols")
		seed       = flag.Int64("seed", 1, "generator seed")
		parallel   = flag.Int("p", 0, "build workers (0 = all CPUs)")
		partitions = flag.Int("partitions", 1, "spatial partitions (>1 builds the sharded index)")
		out        = flag.String("o", "", "write the built index to this file as a paged image (page-aligned, demand-paged, network embedded; open with OpenEngine / silcserve -index)")
		format     = flag.String("format", "paged", "output format; paged is the only one")
		// -compress stays only because the benchmark module passes it.
		compress = flag.String("compress", "delta", "block-page encoding; delta (delta+varint) is the only one")
	)
	flag.Parse()

	if *format != "paged" {
		fmt.Fprintf(os.Stderr, "silcbuild: unknown -format %q: PR 21 removed the legacy stream formats, -o writes a paged image (serve it fully resident with -cache-fraction 1)\n", *format)
		os.Exit(1)
	}
	if *compress != "delta" {
		fmt.Fprintf(os.Stderr, "silcbuild: unknown -compress %q: the fixed-width encoding was removed, every image is delta-compressed (omit -compress)\n", *compress)
		os.Exit(1)
	}
	net, err := loadOrGenerate(*netFile, *rows, *cols, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silcbuild:", err)
		os.Exit(1)
	}
	if *partitions > 1 {
		buildSharded(net, *partitions, *parallel, *out)
		return
	}
	ix, err := silc.BuildIndex(net, silc.BuildOptions{Parallelism: *parallel})
	if err != nil {
		fmt.Fprintln(os.Stderr, "silcbuild:", err)
		os.Exit(1)
	}
	s := ix.Stats()
	n := float64(s.Vertices)
	fmt.Printf("vertices:        %d\n", s.Vertices)
	fmt.Printf("directed edges:  %d\n", s.Edges)
	fmt.Printf("morton blocks:   %d\n", s.TotalBlocks)
	fmt.Printf("blocks/vertex:   %.1f (min %d, max %d)\n", s.BlocksPerVertex(), s.MinBlocks, s.MaxBlocks)
	fmt.Printf("c in c*n^1.5:    %.2f\n", float64(s.TotalBlocks)/(n*math.Sqrt(n)))
	fmt.Printf("encoded size:    %.2f MiB\n", float64(s.TotalBytes)/(1<<20))
	fmt.Printf("build time:      %v\n", s.BuildTime)

	if *out != "" {
		writeImage(ix, *out)
	}
}

// writeImage prints the planned image's size table, then writes it to path
// atomically.
func writeImage(ix interface {
	PagedImageInfo() (silc.ImageInfo, error)
	WriteFile(path string) error
}, path string) {
	info, err := ix.PagedImageInfo()
	if err == nil {
		printImageInfo(info)
		err = ix.WriteFile(path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "silcbuild:", err)
		os.Exit(1)
	}
	fmt.Printf("index written:   %s (%.2f MiB)\n", path, float64(info.Total)/(1<<20))
}

// printImageInfo prints the per-section size table of a planned paged image.
func printImageInfo(info silc.ImageInfo) {
	mib := func(b int64) float64 { return float64(b) / (1 << 20) }
	fmt.Printf("paged image:     %.2f MiB\n", mib(info.Total))
	fmt.Printf("  superblock:    %d B\n", info.Superblock)
	fmt.Printf("  network:       %.2f MiB\n", mib(info.Network))
	fmt.Printf("  extents:       %.2f MiB\n", mib(info.Extents))
	fmt.Printf("  block pages:   %.2f MiB (%d pages, %d blocks)\n",
		mib(info.BlockSection), info.BlockPages, info.TotalBlocks)
	fmt.Printf("  crc table:     %d B\n", info.CRCTable)
}

func buildSharded(net *silc.Network, partitions, parallel int, out string) {
	ix, err := silc.BuildShardedIndex(net, silc.ShardedBuildOptions{
		Partitions:  partitions,
		Parallelism: parallel,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "silcbuild:", err)
		os.Exit(1)
	}
	s := ix.Stats()
	n := float64(s.Vertices)
	fmt.Printf("vertices:        %d\n", s.Vertices)
	fmt.Printf("directed edges:  %d\n", s.Edges)
	fmt.Printf("partitions:      %d (cells of %d..%d vertices, %d self-contained)\n",
		s.Partitions, s.MinCellVertices, s.MaxCellVertices, s.SelfContained)
	fmt.Printf("boundary:        %d vertices, %d cut edges\n", s.BoundaryVertices, s.CutEdges)
	fmt.Printf("morton blocks:   %d (%.1f/vertex)\n", s.CellBlocks, float64(s.CellBlocks)/n)
	fmt.Printf("c in c*n^1.5:    %.2f (monolithic-equivalent exponent base)\n",
		float64(s.CellBlocks)/(n*math.Sqrt(n)))
	fmt.Printf("cell bytes:      %.2f MiB\n", float64(s.CellBytes)/(1<<20))
	fmt.Printf("closure bytes:   %.2f MiB\n", float64(s.ClosureBytes)/(1<<20))
	fmt.Printf("total bytes:     %.2f MiB\n", float64(s.TotalBytes)/(1<<20))
	fmt.Printf("build time:      %v (partition %v, cells %v, closure %v)\n",
		s.BuildTime.Round(time.Millisecond), s.PartitionTime.Round(time.Millisecond),
		s.CellBuildTime.Round(time.Millisecond), s.ClosureTime.Round(time.Millisecond))

	if out != "" {
		writeImage(ix, out)
	}
}

func loadOrGenerate(file string, rows, cols int, seed int64) (*silc.Network, error) {
	if file == "" {
		return silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: seed})
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return silc.LoadNetwork(f)
}
