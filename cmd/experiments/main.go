// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded results):
//
//	T1  storage-model trade-offs           (paper p.11)
//	F1  Morton-block storage growth        (paper p.16, slope ~1.5)
//	F2  Dijkstra vs SILC vertices visited  (paper pp.3/7)
//	F3  execution cost comparison          (paper p.33: CPU time and the
//	    paged store's I/O — misses, reads, read time — side by side)
//	F4  max priority-queue size vs INN     (paper p.34)
//	F5  refinement operations vs INN       (paper p.35)
//	F6  KMINDIST pruning in kNN-M          (paper p.36)
//	F7  quality of D0k and KMINDIST        (paper p.37)
//	F8  CPU, I/O and KNN-PQ decomposition  (paper p.38)
//	TP  parallel query throughput          (beyond the paper: QPS vs
//	    goroutine count on one shared index, memory- and disk-resident)
//	SH  sharded vs monolithic index        (beyond the paper: build time,
//	    storage, and QPS of the partitioned index against the monolith)
//	PG  real paged store                   (beyond the paper: an exact-
//	    distance workload on the on-disk paged image — pool traffic,
//	    actual reads and measured I/O time)
//
// Usage:
//
//	experiments                 # full run (~minutes)
//	experiments -quick          # reduced sizes and query counts (~seconds)
//	experiments -only F3,F4     # subset
//	experiments -json           # also write BENCH_<id>.json result files
//	experiments -baseline       # write canonical BENCH_F3/ALLOC/PG.json baselines
//	experiments -check          # fail on regression against committed baselines
//
// With -json every selected experiment additionally writes its raw
// measurements as machine-readable BENCH_<id>.json (into -json-dir), so the
// perf trajectory of the repo can be tracked without parsing tables.
//
// -baseline and -check are the benchmark-trajectory gate (see regress.go):
// -baseline runs a fixed smoke suite and writes the canonical committed
// baselines; -check reruns it and exits nonzero if an exact count (F3 page
// traffic and refinements, PG image sizes and cold pool counters) moved at
// all or allocs/op grew. It judges no time; that is benchmark/'s job.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"silc/internal/bench"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced sizes and query counts")
		only     = flag.String("only", "", "comma-separated subset, e.g. F1,F3,T1")
		rows     = flag.Int("rows", bench.DefaultRows, "evaluation lattice rows")
		cols     = flag.Int("cols", bench.DefaultCols, "evaluation lattice cols")
		queries  = flag.Int("queries", 50, "queries per sweep point (paper: >=50)")
		seed     = flag.Int64("seed", bench.DefaultSeed, "master seed")
		jsonOut  = flag.Bool("json", false, "write machine-readable BENCH_<id>.json result files")
		jsonDir  = flag.String("json-dir", ".", "directory for -json result files")
		baseline = flag.Bool("baseline", false, "run the F3/ALLOC/PG smoke suite and write the canonical BENCH_*.json baselines into -json-dir")
		regCheck = flag.Bool("check", false, "rerun the F3/ALLOC/PG smoke suite and fail on regression against the committed BENCH_*.json baselines")
	)
	flag.Parse()
	if *baseline || *regCheck {
		if *baseline && *regCheck {
			check(fmt.Errorf("-baseline and -check are mutually exclusive"))
		}
		check(runRegress(*baseline, *jsonDir, *seed))
		return
	}
	record := func(id string, payload any) {
		if !*jsonOut {
			return
		}
		if err := writeJSON(*jsonDir, id, payload); err != nil {
			check(err)
		}
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(s))] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	if *quick {
		*rows, *cols, *queries = 32, 32, 10
	}
	out := os.Stdout
	start := time.Now()

	fmt.Fprintf(out, "SILC evaluation — reproducing Samet, Sankaranarayanan, Alborzi (SIGMOD 2008)\n")
	fmt.Fprintf(out, "substrate: synthetic road network (see DESIGN.md §5), %dx%d lattice, seed %d\n\n",
		*rows, *cols, *seed)

	if want("T1") {
		t1rows, t1cols := 32, 32
		if *quick {
			t1rows, t1cols = 16, 16
		}
		rowsT1, err := bench.StorageModels(t1rows, t1cols, *seed, 0.25, 200)
		check(err)
		bench.RenderModels(out, rowsT1)
		record("T1", map[string]any{"lattice": t1rows, "models": rowsT1})
	}

	if want("F1") {
		lattices := []int{16, 24, 32, 48, 64, 96, 128}
		if *quick {
			lattices = []int{12, 16, 24, 32}
		}
		rowsF1, slope, err := bench.StorageGrowth(lattices, *seed)
		check(err)
		bench.RenderStorageGrowth(out, rowsF1, slope)
		record("F1", map[string]any{"rows": rowsF1, "slope": slope})
	}

	if want("PG") {
		pgRows, pgCols, pgQueries := *rows, *cols, 500
		if *quick {
			pgRows, pgCols, pgQueries = 32, 32, 100
		}
		pg, err := bench.PagedIO(pgRows, pgCols, pgQueries, *seed, 0.05)
		check(err)
		bench.RenderPagedIO(out, pg)
		record("PG", pg)
	}

	if want("SH") {
		shRows, shCols, shParts, shQueries := *rows, *cols, 8, 2000
		if *quick {
			shRows, shCols, shParts, shQueries = 32, 32, 4, 200
		}
		cmp, err := bench.CompareSharded(shRows, shCols, shParts, shQueries, *seed)
		check(err)
		bench.RenderSharded(out, cmp)
		record("SH", cmp)
	}

	needEnv := want("F2") || want("F3") || want("F4") || want("F5") ||
		want("F6") || want("F7") || want("F8") || want("TP")
	if !needEnv {
		fmt.Fprintf(out, "done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	fmt.Fprintf(out, "building evaluation index (%dx%d lattice)...\n", *rows, *cols)
	env, err := bench.NewEnv(*rows, *cols, *seed, true)
	check(err)
	defer env.Close()
	s := env.Ix.Stats()
	fmt.Fprintf(out, "index: %d vertices, %d edges, %d Morton blocks (%.1f/vertex), built in %v\n\n",
		s.Vertices, s.Edges, s.TotalBlocks, s.BlocksPerVertex(), s.BuildTime.Round(time.Millisecond))

	if want("F2") {
		rowsF2, sum := env.DijkstraVsSILC(*queries, *seed+1)
		bench.RenderVisitSummary(out, sum, rowsF2)
		record("F2", map[string]any{"summary": sum, "queries": rowsF2})
	}

	needSweep := want("F3") || want("F4") || want("F5") || want("F6") || want("F7") || want("F8")
	if needSweep {
		algos := bench.Algorithms()
		fmt.Fprintf(out, "running sweeps (%d queries per point, %d algorithms)...\n\n", *queries, len(algos))
		varyS, err := env.Sweep(bench.VarySSpec(), *queries, algos, *seed+2)
		check(err)
		varyK, err := env.Sweep(bench.VaryKSpec(), *queries, algos, *seed+3)
		check(err)
		panels := []struct {
			title  string
			points []bench.SweepPoint
		}{
			{"k=10 varying |S|", varyS},
			{"|S|=0.07N varying k", varyK},
		}
		sweepPayload := map[string]any{"vary_s": varyS, "vary_k": varyK, "queries_per_point": *queries}
		for _, id := range []string{"F3", "F4", "F5", "F6", "F7", "F8"} {
			if want(id) {
				record(id, sweepPayload)
			}
		}
		for _, p := range panels {
			if want("F3") {
				bench.RenderF3(out, p.title, p.points)
			}
			if want("F4") {
				bench.RenderF4(out, p.title, p.points)
			}
			if want("F5") {
				bench.RenderF5(out, p.title, p.points)
			}
			if want("F6") {
				bench.RenderF6(out, p.title, p.points)
			}
			if want("F7") {
				bench.RenderF7(out, p.title, p.points)
			}
			if want("F8") {
				bench.RenderF8(out, p.title, p.points)
			}
		}
	}

	if want("TP") {
		gcs := []int{1, 2, 4, 8, 16}
		nq := 2000
		if *quick {
			gcs, nq = []int{1, 2, 4}, 400
		}
		w := env.NewThroughputWorkload(nq, 0.05, 10, *seed+4)
		diskPts, err := bench.ThroughputSweep(env.Cold, w, gcs)
		check(err)
		fmt.Fprintln(out, bench.ThroughputTable(
			fmt.Sprintf("TP: parallel kNN throughput, disk-resident (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
			diskPts))
		memEnv, err := bench.NewEnv(*rows, *cols, *seed, false)
		check(err)
		wm := memEnv.NewThroughputWorkload(nq, 0.05, 10, *seed+4)
		memPts, err := bench.ThroughputSweep(memEnv.Cold, wm, gcs)
		check(err)
		fmt.Fprintln(out, bench.ThroughputTable(
			"TP: parallel kNN throughput, memory-resident",
			memPts))
		record("TP", map[string]any{"disk_resident": diskPts, "memory_resident": memPts})
	}
	fmt.Fprintf(out, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// writeJSON writes one experiment's payload as BENCH_<id>.json.
func writeJSON(dir, id string, payload any) error {
	data, err := json.MarshalIndent(map[string]any{"id": id, "result": payload}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+id+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
