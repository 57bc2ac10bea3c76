// Benchmark-trajectory regression gate.
//
// `experiments -baseline` runs a fixed smoke-sized measurement suite —
// F3 (per-query page traffic and refinements of every kNN algorithm on the
// real paged store), ALLOC (steady-state allocations on the public Engine
// surface), and PG (block-page image sizes in both encodings, cold pool
// counters, and warm-path allocations through positioned reads and mmap) —
// and writes the results as the canonical BENCH_F3.json / BENCH_ALLOC.json /
// BENCH_PG.json files, which are committed to the repository.
//
// `experiments -check` (the CI bench-regress job) reruns the identical suite
// and compares it against the committed files:
//
//   - exact counts must match EXACTLY: the F3 rows (page misses, page reads
//     and refinements per query — a fixed single-threaded workload over a
//     deterministic LRU and page layout), the PG image sizes and cold pool
//     counters. They are machine-independent, so any drift is a change in
//     paging or search behavior, never noise;
//   - any increase in allocs/op fails — the hot path is allocation-free by
//     design and a single new steady-state allocation is a regression.
//
// The gate judges no time: every number it compares is the same on every
// machine and every run. Latency and throughput are the end-to-end
// benchmark's job (benchmark/: calibrated alternating pairs with bounds).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"silc"
	"silc/internal/bench"
)

// The smoke suite is sized for CI: small enough to finish in well under a
// minute.
const (
	regressLattice = 48 // rows == cols of the evaluation lattice
	regressQueries = 24 // queries per sweep point
)

// regressSpecs returns the F3 sweep points the gate tracks: the paper's
// |S|=0.07N column at a small and a large k.
func regressSpecs() []bench.SweepSpec {
	return []bench.SweepSpec{
		{Label: "k=10", Fraction: 0.07, K: 10},
		{Label: "k=100", Fraction: 0.07, K: 100},
	}
}

type f3Baseline struct {
	Lattice         int       `json:"lattice"`
	QueriesPerPoint int       `json:"queries_per_point"`
	Points          []f3Point `json:"points"`
}

type f3Point struct {
	Label string `json:"label"`
	K     int    `json:"k"`
	// Fraction is |S|/N, the object-set density of the point.
	Fraction float64 `json:"s_fraction"`
	// PerQuery maps algorithm name to its mean per-query counts over the
	// point's fixed workload, each batch starting from a cold store.
	PerQuery map[string]f3Counts `json:"per_query"`
}

// f3Counts are exact: each is a sum of integer counts divided by the fixed
// query count, the same arithmetic on every machine.
type f3Counts struct {
	PageMisses  float64 `json:"page_misses"`
	PageReads   float64 `json:"page_reads"`
	Refinements float64 `json:"refinements"`
}

type allocBaseline struct {
	Rows []allocRow `json:"rows"`
}

// allocRow is one steady-state operation measured through testing.Benchmark
// on the public Engine API with a warm query-context pool.
type allocRow struct {
	Op          string `json:"op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// pgBaseline tracks the compressed block-page format: exact image sizes in
// both encodings (byte-deterministic — any drift means the on-disk format
// changed and the baseline must be consciously regenerated), exact cold-scan
// pool counters under a 5% pool, and warm-path allocations through
// positioned reads and mmap.
type pgBaseline struct {
	Lattice int        `json:"lattice"`
	Images  []pgImage  `json:"images"`
	ColdIO  []pgColdIO `json:"cold_io"`
	Rows    []allocRow `json:"rows"`
}

// pgImage records one index layout's paged image size in both encodings.
// Ratio is fixed-width ÷ compressed over the whole image, straight from
// ImageInfo (page alignment included, so it understates the block-section
// compression on small images).
type pgImage struct {
	Name       string  `json:"name"`
	FixedBytes int64   `json:"fixed_bytes"`
	DeltaBytes int64   `json:"delta_bytes"`
	Ratio      float64 `json:"ratio"`
}

// pgColdIO records the exact pool traffic of a fixed single-threaded query
// scan over a cold store with a 5%-sized pool. Reads, misses, and hits are
// deterministic: same workload, same LRU, same page layout.
type pgColdIO struct {
	Name   string `json:"name"`
	Reads  int64  `json:"page_reads"`
	Misses int64  `json:"page_misses"`
	Hits   int64  `json:"page_hits"`
}

// measureF3 runs the smoke sweep once on the real paged store and records
// the per-(point, algorithm) page traffic and refinement counts.
func measureF3(seed int64) (f3Baseline, error) {
	env, err := bench.NewEnv(regressLattice, regressLattice, seed, true)
	if err != nil {
		return f3Baseline{}, err
	}
	defer env.Close()
	pts, err := env.Sweep(regressSpecs(), regressQueries, bench.Algorithms(), seed+2)
	if err != nil {
		return f3Baseline{}, err
	}
	out := f3Baseline{Lattice: regressLattice, QueriesPerPoint: regressQueries}
	for _, pt := range pts {
		p := f3Point{Label: pt.Spec.Label, K: pt.Spec.K, Fraction: pt.Spec.Fraction, PerQuery: map[string]f3Counts{}}
		for name, agg := range pt.Per {
			p.PerQuery[name] = f3Counts{PageMisses: agg.IOMisses, PageReads: agg.IOReads, Refinements: agg.Refinements}
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// measureAlloc measures the steady-state public-Engine operations the
// allocation budgets in allocbudget_test.go cover, via testing.Benchmark so
// allocs/op comes from the standard tooling.
func measureAlloc(seed int64) (allocBaseline, error) {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 32, Cols: 32, Seed: seed})
	if err != nil {
		return allocBaseline{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(net.NumVertices())
	verts := make([]silc.VertexID, 48)
	for i := range verts {
		verts[i] = silc.VertexID(perm[i])
	}
	objs, err := silc.NewObjectSet(net, verts)
	if err != nil {
		return allocBaseline{}, err
	}
	q := silc.VertexID(perm[len(perm)-1])

	mono, err := silc.BuildIndex(net, silc.BuildOptions{})
	if err != nil {
		return allocBaseline{}, err
	}
	shard, err := silc.BuildShardedIndex(net, silc.ShardedBuildOptions{Partitions: 4})
	if err != nil {
		return allocBaseline{}, err
	}
	var pg bytes.Buffer
	if _, err := mono.WritePaged(&pg); err != nil {
		return allocBaseline{}, err
	}
	paged, err := silc.OpenIndexAt(bytes.NewReader(pg.Bytes()), int64(pg.Len()), silc.BuildOptions{CacheFraction: 1.0})
	if err != nil {
		return allocBaseline{}, err
	}

	ctx := context.Background()
	ops := []struct {
		name string
		op   func() error
	}{
		{"knn-k10/monolithic", func() error { _, err := mono.Engine().Query(ctx, objs, q, 10); return err }},
		{"knn-k10/sharded", func() error { _, err := shard.Engine().Query(ctx, objs, q, 10); return err }},
		{"knn-k10/paged-warm", func() error { _, err := paged.Engine().Query(ctx, objs, q, 10); return err }},
		{"range-0.25/monolithic", func() error { _, err := mono.Engine().WithinDistance(ctx, objs, q, 0.25); return err }},
		{"neighbors-10/monolithic", func() error {
			count := 0
			for _, err := range mono.Engine().Neighbors(ctx, objs, q) {
				if err != nil {
					return err
				}
				if count++; count == 10 {
					break
				}
			}
			return nil
		}},
	}
	// One mutation of a live world at the end-to-end benchmark's population:
	// a successor snapshot costs a path and a chunk, whatever the population.
	live, err := silc.NewLiveObjects(net, silc.LiveObjectsOptions{})
	if err != nil {
		return allocBaseline{}, err
	}
	defer live.Close()
	const liveObjects = 1131
	for i := 0; i < liveObjects; i++ {
		if _, _, err := live.Insert(silc.VertexID(rng.Intn(net.NumVertices()))); err != nil {
			return allocBaseline{}, err
		}
	}
	ops = append(ops, struct {
		name string
		op   func() error
	}{fmt.Sprintf("live-move/%d", liveObjects), func() error {
		_, err := live.Move(int32(rng.Intn(liveObjects)), silc.VertexID(rng.Intn(net.NumVertices())))
		return err
	}})

	var out allocBaseline
	for _, o := range ops {
		op := o.op
		for i := 0; i < 5; i++ { // warm the context pool and page cache
			if err := op(); err != nil {
				return allocBaseline{}, fmt.Errorf("%s: %w", o.name, err)
			}
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
		out.Rows = append(out.Rows, allocRow{
			Op:          o.name,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return out, nil
}

// measurePG builds the 48x48 index in both page encodings, records exact
// image sizes, runs a fixed cold kNN scan against each encoding under a 5%
// pool recording exact pool counters, and benchmarks the warm compressed
// path through positioned reads and (where supported) a memory mapping.
func measurePG(seed int64) (pgBaseline, error) {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: regressLattice, Cols: regressLattice, Seed: seed})
	if err != nil {
		return pgBaseline{}, err
	}
	out := pgBaseline{Lattice: regressLattice}

	type layout struct {
		name  string
		build func(c silc.Compression) (interface {
			WritePaged(w io.Writer) (int64, error)
		}, error)
	}
	layouts := []layout{
		{"mono", func(c silc.Compression) (interface {
			WritePaged(w io.Writer) (int64, error)
		}, error) {
			return silc.BuildIndex(net, silc.BuildOptions{Compression: c})
		}},
		{"sharded-4", func(c silc.Compression) (interface {
			WritePaged(w io.Writer) (int64, error)
		}, error) {
			return silc.BuildShardedIndex(net, silc.ShardedBuildOptions{Partitions: 4, Compression: c})
		}},
	}
	images := map[string]map[silc.Compression]*bytes.Buffer{}
	for _, l := range layouts {
		img := pgImage{Name: l.name}
		images[l.name] = map[silc.Compression]*bytes.Buffer{}
		for _, c := range []silc.Compression{silc.CompressionNone, silc.CompressionDelta} {
			ix, err := l.build(c)
			if err != nil {
				return pgBaseline{}, err
			}
			var buf bytes.Buffer
			if _, err := ix.WritePaged(&buf); err != nil {
				return pgBaseline{}, err
			}
			images[l.name][c] = &buf
			if c == silc.CompressionNone {
				img.FixedBytes = int64(buf.Len())
			} else {
				img.DeltaBytes = int64(buf.Len())
			}
		}
		img.Ratio = float64(img.FixedBytes) / float64(img.DeltaBytes)
		out.Images = append(out.Images, img)
	}

	// Fixed cold scan: every 7th vertex queries kNN k=10 against a 5% pool.
	// Single-threaded over a deterministic LRU, so the counters are exact.
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(net.NumVertices())
	verts := make([]silc.VertexID, 48)
	for i := range verts {
		verts[i] = silc.VertexID(perm[i])
	}
	objs, err := silc.NewObjectSet(net, verts)
	if err != nil {
		return pgBaseline{}, err
	}
	ctx := context.Background()
	for _, enc := range []struct {
		name string
		comp silc.Compression
	}{{"pg1", silc.CompressionNone}, {"pg2", silc.CompressionDelta}} {
		img := images["mono"][enc.comp].Bytes()
		cold, err := silc.OpenIndexAt(bytes.NewReader(img), int64(len(img)), silc.BuildOptions{CacheFraction: 0.05})
		if err != nil {
			return pgBaseline{}, err
		}
		for q := 0; q < net.NumVertices(); q += 7 {
			if _, err := cold.Engine().Query(ctx, objs, silc.VertexID(q), 10); err != nil {
				return pgBaseline{}, fmt.Errorf("cold %s query %d: %w", enc.name, q, err)
			}
		}
		io := cold.IOStats()
		out.ColdIO = append(out.ColdIO, pgColdIO{Name: enc.name, Reads: io.PageReads, Misses: io.PageMisses, Hits: io.PageHits})
	}

	// Warm compressed path: kNN k=10 through a never-evicting pool, once per
	// page source. The mmap open goes through a temp file; on platforms
	// without mmap it degrades to positioned reads, which keeps the row
	// comparable (same decode path, same steady-state allocations).
	img2 := images["mono"][silc.CompressionDelta].Bytes()
	warm, err := silc.OpenIndexAt(bytes.NewReader(img2), int64(len(img2)), silc.BuildOptions{CacheFraction: 1.0})
	if err != nil {
		return pgBaseline{}, err
	}
	tmp, err := os.CreateTemp("", "silc-pg-*.silcpg2")
	if err != nil {
		return pgBaseline{}, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(img2); err != nil {
		return pgBaseline{}, err
	}
	if err := tmp.Close(); err != nil {
		return pgBaseline{}, err
	}
	mapped, err := silc.OpenIndex(tmp.Name(), silc.BuildOptions{CacheFraction: 1.0, Mmap: true})
	if err != nil {
		return pgBaseline{}, err
	}
	defer mapped.Close()
	q := silc.VertexID(perm[len(perm)-1])
	for _, row := range []struct {
		name string
		eng  *silc.Engine
	}{
		{"knn-k10/paged-pg2-warm", warm.Engine()},
		{"knn-k10/paged-pg2-mmap-warm", mapped.Engine()},
	} {
		eng := row.eng
		for i := 0; i < 5; i++ {
			if _, err := eng.Query(ctx, objs, q, 10); err != nil {
				return pgBaseline{}, fmt.Errorf("%s: %w", row.name, err)
			}
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(ctx, objs, q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
		out.Rows = append(out.Rows, allocRow{
			Op:          row.name,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return out, nil
}

// runRegress drives both modes. In baseline mode the three canonical files
// are (re)written into dir; in check mode fresh runs are compared against
// the committed files and any drift returns an error.
func runRegress(baseline bool, dir string, seed int64) error {
	mode := "check"
	if baseline {
		mode = "baseline"
	}
	fmt.Printf("bench-regress (%s): lattice %dx%d, %d queries/point\n\n",
		mode, regressLattice, regressLattice, regressQueries)

	f3, err := measureF3(seed)
	if err != nil {
		return err
	}
	al, err := measureAlloc(seed)
	if err != nil {
		return err
	}
	pg, err := measurePG(seed)
	if err != nil {
		return err
	}

	if baseline {
		if err := writeJSON(dir, "F3", f3); err != nil {
			return err
		}
		if err := writeJSON(dir, "ALLOC", al); err != nil {
			return err
		}
		return writeJSON(dir, "PG", pg)
	}

	var base3 f3Baseline
	var baseAL allocBaseline
	var basePG pgBaseline
	if err := readBaseline(dir, "F3", &base3); err != nil {
		return err
	}
	if err := readBaseline(dir, "ALLOC", &baseAL); err != nil {
		return err
	}
	if err := readBaseline(dir, "PG", &basePG); err != nil {
		return err
	}

	failures := 0
	failures += checkF3(base3, f3)
	fmt.Println("ALLOC (allocs/op must not increase at all):")
	failures += checkRows(baseAL.Rows, al.Rows)
	failures += checkPG(basePG, pg)
	if failures > 0 {
		return fmt.Errorf("bench-regress: %d regression(s) against committed BENCH_*.json", failures)
	}
	fmt.Println("\nbench-regress: every count matches the committed baselines")
	return nil
}

// checkF3 compares the F3 counts by equality, like the PG cold rows: the
// workload, the LRU and the page layout are all deterministic.
func checkF3(base, fresh f3Baseline) int {
	fmt.Println("F3 (page misses, page reads and refinements per query; exact):")
	failures := 0
	for _, bp := range base.Points {
		var fp *f3Point
		for i := range fresh.Points {
			if fresh.Points[i].Label == bp.Label {
				fp = &fresh.Points[i]
			}
		}
		if fp == nil {
			fmt.Printf("  FAIL %-8s missing from fresh run\n", bp.Label)
			failures++
			continue
		}
		names := make([]string, 0, len(bp.PerQuery))
		for name := range bp.PerQuery {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bc := bp.PerQuery[name]
			fc, ok := fp.PerQuery[name]
			if !ok {
				fmt.Printf("  FAIL %-8s %-6s missing from fresh run\n", bp.Label, name)
				failures++
				continue
			}
			status := "ok  "
			if fc != bc {
				status = "FAIL"
				failures++
			}
			fmt.Printf("  %s %-8s %-6s misses %10.2f  reads %9.2f  refinements %9.2f", status, bp.Label, name,
				fc.PageMisses, fc.PageReads, fc.Refinements)
			if status == "FAIL" {
				fmt.Printf("  <- baseline %.2f/%.2f/%.2f: paging or search behavior drifted", bc.PageMisses, bc.PageReads, bc.Refinements)
			}
			fmt.Println()
		}
	}
	return failures
}

// checkRows applies the steady-state rule to one suite's benchmark rows:
// allocs/op must never grow.
func checkRows(base, fresh []allocRow) int {
	failures := 0
	freshByOp := map[string]allocRow{}
	for _, r := range fresh {
		freshByOp[r.Op] = r
	}
	for _, br := range base {
		fr, ok := freshByOp[br.Op]
		if !ok {
			fmt.Printf("  FAIL %-28s missing from fresh run\n", br.Op)
			failures++
			continue
		}
		status := "ok  "
		reason := ""
		if fr.AllocsPerOp > br.AllocsPerOp {
			status = "FAIL"
			reason = fmt.Sprintf("  <- allocs/op grew %d -> %d", br.AllocsPerOp, fr.AllocsPerOp)
			failures++
		}
		fmt.Printf("  %s %-28s base %3d allocs  fresh %3d allocs%s\n",
			status, br.Op, br.AllocsPerOp, fr.AllocsPerOp, reason)
	}
	return failures
}

// checkPG compares the page-format suite. Image sizes and cold pool
// counters are byte-deterministic, so they must match EXACTLY — any drift
// means the on-disk encoding changed, and the baseline (plus the golden
// files) must be regenerated deliberately, never absorbed by a tolerance
// band. The warm rows follow the ALLOC rule (checkRows).
func checkPG(base, fresh pgBaseline) int {
	fmt.Println("PG (image sizes and cold pool counters exact; warm allocs/op must not increase):")
	failures := 0

	freshImg := map[string]pgImage{}
	for _, im := range fresh.Images {
		freshImg[im.Name] = im
	}
	for _, bi := range base.Images {
		fi, ok := freshImg[bi.Name]
		if !ok {
			fmt.Printf("  FAIL %-10s missing from fresh run\n", bi.Name)
			failures++
			continue
		}
		status := "ok  "
		if fi.FixedBytes != bi.FixedBytes || fi.DeltaBytes != bi.DeltaBytes {
			status = "FAIL"
			failures++
		}
		fmt.Printf("  %s %-10s fixed %9d B  delta %9d B  ratio %.2fx", status, bi.Name, fi.FixedBytes, fi.DeltaBytes, fi.Ratio)
		if status == "FAIL" {
			fmt.Printf("  <- baseline %d/%d B: on-disk format drifted; regenerate baselines+goldens if intended", bi.FixedBytes, bi.DeltaBytes)
		}
		fmt.Println()
	}

	freshIO := map[string]pgColdIO{}
	for _, c := range fresh.ColdIO {
		freshIO[c.Name] = c
	}
	for _, bc := range base.ColdIO {
		fc, ok := freshIO[bc.Name]
		if !ok {
			fmt.Printf("  FAIL cold-%-5s missing from fresh run\n", bc.Name)
			failures++
			continue
		}
		status := "ok  "
		if fc != bc {
			status = "FAIL"
			failures++
		}
		fmt.Printf("  %s cold-%-5s reads %6d  misses %6d  hits %8d", status, bc.Name, fc.Reads, fc.Misses, fc.Hits)
		if status == "FAIL" {
			fmt.Printf("  <- baseline %d/%d/%d: paging behavior drifted", bc.Reads, bc.Misses, bc.Hits)
		}
		fmt.Println()
	}

	return failures + checkRows(base.Rows, fresh.Rows)
}

// readBaseline loads a committed BENCH_<id>.json (the {"id","result"}
// wrapper writeJSON produces) and decodes result into out.
func readBaseline(dir, id string, out any) error {
	path := filepath.Join(dir, "BENCH_"+id+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading committed baseline: %w (run `experiments -baseline` to create it)", err)
	}
	var wrapper struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &wrapper); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return json.Unmarshal(wrapper.Result, out)
}
