package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"silc/internal/core"
	"silc/internal/diskio"
	"silc/internal/graph"
	"silc/internal/store"
)

// PagedIOResult is the I/O accounting of one exact-distance workload served
// from a real paged store file (quadtrees on disk, pool misses are actual
// reads).
type PagedIOResult struct {
	Lattice  int     `json:"lattice"`
	Vertices int     `json:"vertices"`
	Queries  int     `json:"queries"`
	CacheFr  float64 `json:"cache_fraction"`

	FileBytes  int64 `json:"file_bytes"`
	BlockPages int64 `json:"block_pages"`
	PoolPages  int   `json:"pool_pages"`

	PagedHits     int64         `json:"paged_hits"`
	PagedMisses   int64         `json:"paged_misses"`
	ActualReads   int64         `json:"actual_reads"`
	ActualBytes   int64         `json:"actual_read_bytes"`
	MeasuredIO    time.Duration `json:"measured_io_time_ns"`
	ResidentPages int           `json:"resident_pages"`
}

// PagedIO builds one index, writes it as a paged store file, serves a
// random exact-distance workload from it, and reports the pool's counters
// next to the store's real reads.
func PagedIO(rows, cols, queries int, seed int64, cacheFraction float64) (*PagedIOResult, error) {
	if cacheFraction <= 0 {
		cacheFraction = 0.05
	}
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: seed})
	if err != nil {
		return nil, err
	}
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		return nil, err
	}

	f, err := os.CreateTemp("", "silc-bench-*.silcpg")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	defer os.Remove(path)
	info, err := ix.WritePaged(f)
	fileBytes := info.Total
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	st, err := store.OpenFile(path, store.OpenOptions{CacheFraction: cacheFraction})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	px := core.NewPagedIndex(core.PagedConfig{Source: st})

	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed * 7919))
	var paged diskio.Stats
	for i := 0; i < queries; i++ {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		qc := core.NewQueryContext()
		core.ExactDistance(px, qc, u, v)
		if err := qc.Err(); err != nil {
			return nil, fmt.Errorf("bench: paged query failed: %w", err)
		}
		paged.Add(qc.IO)
	}

	return &PagedIOResult{
		Lattice:       rows,
		Vertices:      n,
		Queries:       queries,
		CacheFr:       cacheFraction,
		FileBytes:     fileBytes,
		BlockPages:    st.BlockPages(),
		PoolPages:     st.Pager().Pool().Capacity(),
		PagedHits:     paged.Hits,
		PagedMisses:   paged.Misses,
		ActualReads:   st.ReadStats().Reads,
		ActualBytes:   st.ReadStats().Bytes,
		MeasuredIO:    st.ReadStats().Time,
		ResidentPages: st.Tracker().Len(),
	}, nil
}

// RenderPagedIO prints the paged store's I/O accounting.
func RenderPagedIO(w io.Writer, r *PagedIOResult) {
	fmt.Fprintf(w, "PG — real paged store (%d exact-distance queries, %dx%d, cache %.0f%%)\n",
		r.Queries, r.Lattice, r.Lattice, r.CacheFr*100)
	fmt.Fprintf(w, "  paged file:     %.2f MiB, %d block pages, pool %d pages\n",
		float64(r.FileBytes)/(1<<20), r.BlockPages, r.PoolPages)
	fmt.Fprintf(w, "  pool traffic:   %d hits, %d misses\n", r.PagedHits, r.PagedMisses)
	fmt.Fprintf(w, "  actual reads:   %d (%.2f MiB), measured I/O %v, %d pages resident\n\n",
		r.ActualReads, float64(r.ActualBytes)/(1<<20), r.MeasuredIO.Round(time.Microsecond), r.ResidentPages)
}
