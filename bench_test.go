// Package-level benchmarks: one benchmark family per table and figure of
// the paper's evaluation (DESIGN.md §4 maps each to its experiment id).
// `go test -bench=. -benchmem` regenerates every measurement; the custom
// metrics reported via b.ReportMetric carry the figure's quantity (block
// counts, queue sizes, refinement counts, page misses and reads) alongside
// wall time.
//
// cmd/experiments renders the same data as the paper's tables; these
// benchmarks make the measurements reproducible under the standard Go
// tooling.
package silc

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"silc/internal/bench"
	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/oracle"
	"silc/internal/sssp"
	"silc/internal/store"
)

// benchEnv is the shared evaluation environment (built once). Benchmarks use
// a mid-size lattice so `go test -bench=.` stays in CI budgets; cmd/
// experiments runs the full-size evaluation.
var (
	envOnce sync.Once
	env     *bench.Env
	envErr  error
)

func sharedEnv(b *testing.B) *bench.Env {
	envOnce.Do(func() {
		env, envErr = bench.NewEnv(64, 64, bench.DefaultSeed, true)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// TestMain releases the shared environment's paged image.
func TestMain(m *testing.M) {
	code := m.Run()
	if env != nil {
		env.Close()
	}
	os.Exit(code)
}

// coldIndex starts the shared environment's store cold for one benchmark:
// the SILC database, or the network-only one the baselines run against.
func coldIndex(b *testing.B, e *bench.Env, baseline bool) core.QueryIndex {
	b.Helper()
	open := e.Cold
	if baseline {
		open = e.ColdNetwork
	}
	ix, err := open()
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkT1StorageModels measures the space/query-time trade-off table
// (paper p.11): distance queries against each storage model.
func BenchmarkT1StorageModels(b *testing.B) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 24, Cols: 24, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]graph.VertexID, 256)
	for i := range pairs {
		pairs[i] = [2]graph.VertexID{
			graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
		}
	}

	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	nh, err := oracle.BuildNextHop(g)
	if err != nil {
		b.Fatal(err)
	}
	exp, err := oracle.BuildExplicitPaths(g)
	if err != nil {
		b.Fatal(err)
	}
	or, err := oracle.BuildDistanceOracle(ix, 0.25)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("Dijkstra", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			sssp.ShortestPath(g, p[0], p[1])
		}
	})
	b.Run("ExplicitPaths", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(exp.SizeBytes()), "storage-bytes")
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			exp.Distance(p[0], p[1])
		}
	})
	b.Run("NextHop", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(nh.SizeBytes()), "storage-bytes")
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			nh.Distance(p[0], p[1])
		}
	})
	b.Run("SILC", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(ix.Stats().TotalBytes), "storage-bytes")
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ix.Distance(p[0], p[1])
		}
	})
	b.Run("DistanceOracle", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(or.SizeBytes()), "storage-bytes")
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			or.Distance(p[0], p[1])
		}
	})
}

// BenchmarkF1StorageGrowth measures SILC build cost and block counts as the
// network grows (paper p.16; block counts follow n^1.5).
func BenchmarkF1StorageGrowth(b *testing.B) {
	for _, rc := range []int{16, 24, 32, 48} {
		b.Run(fmt.Sprintf("lattice=%dx%d", rc, rc), func(b *testing.B) {
			var blocks int64
			var vertices int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: rc, Cols: rc, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				ix, err := core.Build(g, core.BuildOptions{})
				if err != nil {
					b.Fatal(err)
				}
				blocks = ix.Stats().TotalBlocks
				vertices = g.NumVertices()
			}
			b.ReportMetric(float64(blocks), "morton-blocks")
			b.ReportMetric(float64(blocks)/float64(vertices), "blocks/vertex")
		})
	}
}

// BenchmarkF2DijkstraVsSILCPath compares point-to-point path retrieval:
// Dijkstra and A* settle large fractions of the network, SILC touches only
// path vertices (paper pp.3/7).
func BenchmarkF2DijkstraVsSILCPath(b *testing.B) {
	e := sharedEnv(b)
	rng := rand.New(rand.NewSource(9))
	n := e.G.NumVertices()
	pairs := make([][2]graph.VertexID, 128)
	for i := range pairs {
		pairs[i] = [2]graph.VertexID{
			graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
		}
	}
	b.Run("Dijkstra", func(b *testing.B) {
		b.ReportAllocs()
		settled := 0
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			settled = sssp.ShortestPath(e.G, p[0], p[1]).Settled
		}
		b.ReportMetric(float64(settled), "vertices-settled")
	})
	b.Run("AStar", func(b *testing.B) {
		b.ReportAllocs()
		settled := 0
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			settled = sssp.AStar(e.G, p[0], p[1]).Settled
		}
		b.ReportMetric(float64(settled), "vertices-settled")
	})
	b.Run("SILC", func(b *testing.B) {
		b.ReportAllocs()
		hops := 0
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			hops = len(e.Ix.Path(p[0], p[1])) - 1
		}
		b.ReportMetric(float64(hops), "vertices-settled")
	})
}

// benchWorkload is one pre-seeded (object set, query vertex) pair.
type benchWorkload struct {
	objs *knn.Objects
	q    graph.VertexID
}

// benchWorkloads pre-generates n deterministic workloads so fixture
// construction never runs inside a timed loop.
func benchWorkloads(e *bench.Env, rng *rand.Rand, fraction float64, n int) []benchWorkload {
	ws := make([]benchWorkload, n)
	for i := range ws {
		ws[i] = benchWorkload{objs: e.ObjectSet(fraction, rng), q: e.Query(rng)}
	}
	return ws
}

// sweepBench runs one (fraction, k) evaluation point for one algorithm,
// reporting the figure metrics. Workloads are regenerated per iteration
// exactly as in the paper's methodology.
func sweepBench(b *testing.B, algo bench.Algorithm, fraction float64, k int) {
	e := sharedEnv(b)
	rng := rand.New(rand.NewSource(77))
	queries := benchWorkloads(e, rng, fraction, 32)
	ix := coldIndex(b, e, algo.Baseline)
	var agg struct {
		refinements, maxQueue, ioMisses float64
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := queries[i%len(queries)]
		res := algo.Run(ix, w.objs, w.q, k)
		agg.refinements += float64(res.Stats.Refinements)
		agg.maxQueue += float64(res.Stats.MaxQueue)
		agg.ioMisses += float64(res.Stats.IO.Misses)
	}
	n := float64(b.N)
	b.ReportMetric(agg.refinements/n, "refinements/query")
	b.ReportMetric(agg.maxQueue/n, "max-queue")
	b.ReportMetric(agg.ioMisses/n, "page-misses/query")
}

// BenchmarkF3ExecTimeVaryS is the paper's p.33 left panel: k=10, |S|/N in
// {0.001, 0.01, 0.05, 0.2}, all six algorithms. The same runs provide the
// queue-size (F4), refinement (F5), and I/O (F8) series via the reported
// metrics.
func BenchmarkF3ExecTimeVaryS(b *testing.B) {
	for _, f := range []float64{0.001, 0.01, 0.05, 0.2} {
		for _, algo := range bench.Algorithms() {
			algo := algo
			b.Run(fmt.Sprintf("S=%gN/%s", f, algo.Name), func(b *testing.B) {
				sweepBench(b, algo, f, 10)
			})
		}
	}
}

// BenchmarkF3ExecTimeVaryK is the paper's p.33 right panel: |S| = 0.07N,
// k in {5, 10, 50, 100, 300}.
func BenchmarkF3ExecTimeVaryK(b *testing.B) {
	for _, k := range []int{5, 10, 50, 100, 300} {
		for _, algo := range bench.Algorithms() {
			algo := algo
			b.Run(fmt.Sprintf("k=%d/%s", k, algo.Name), func(b *testing.B) {
				sweepBench(b, algo, 0.07, k)
			})
		}
	}
}

// BenchmarkF4QueueSize isolates the queue-size comparison of fig. p.34 at
// the paper's headline point (k=10, |S|=0.07N): the kNN family's Dk pruning
// versus INN.
func BenchmarkF4QueueSize(b *testing.B) {
	for _, algo := range bench.SILCVariants() {
		algo := algo
		b.Run(algo.Name, func(b *testing.B) { sweepBench(b, algo, 0.07, 10) })
	}
}

// BenchmarkF5Refinements isolates the refinement comparison of fig. p.35:
// kNN-M's KMINDIST shortcut saves the ordering refinements.
func BenchmarkF5Refinements(b *testing.B) {
	for _, algo := range bench.SILCVariants() {
		algo := algo
		b.Run(algo.Name, func(b *testing.B) { sweepBench(b, algo, 0.05, 10) })
	}
}

// BenchmarkF6KMinDistPruning measures the share of kNN-M results accepted
// directly against KMINDIST (fig. p.36).
func BenchmarkF6KMinDistPruning(b *testing.B) {
	e := sharedEnv(b)
	rng := rand.New(rand.NewSource(3))
	ix := coldIndex(b, e, false)
	// Deterministic pre-seeded workloads: object-set generation happens
	// outside the timed loop so the measurement covers the query alone.
	workloads := benchWorkloads(e, rng, 0.07, 32)
	accepts, total := 0.0, 0.0
	k := 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := workloads[i%len(workloads)]
		res := knn.Search(ix, w.objs, w.q, k, knn.VariantKNNM)
		accepts += float64(res.Stats.KMinDistAccepts)
		total += float64(len(res.Neighbors))
	}
	if total > 0 {
		b.ReportMetric(100*accepts/total, "kmindist-accept-%")
	}
}

// BenchmarkF7EstimateQuality measures D0k and KMINDIST relative to the true
// Dk (fig. p.37).
func BenchmarkF7EstimateQuality(b *testing.B) {
	e := sharedEnv(b)
	rng := rand.New(rand.NewSource(4))
	ix := coldIndex(b, e, false)
	workloads := benchWorkloads(e, rng, 0.07, 32)
	var d0kRatio, kminRatio, count float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := workloads[i%len(workloads)]
		res := knn.Search(ix, w.objs, w.q, 10, knn.VariantKNN)
		s := res.Stats
		if s.D0k > 0 && s.DkFinal > 0 {
			d0kRatio += s.D0k / s.DkFinal
			kminRatio += s.KMinDist0 / s.DkFinal
			count++
		}
	}
	if count > 0 {
		b.ReportMetric(100*d0kRatio/count, "D0k/Dk-%")
		b.ReportMetric(100*kminRatio/count, "KMINDIST/Dk-%")
	}
}

// BenchmarkF8IOTime measures the I/O of the SILC family on the paged store
// with the 5% LRU pool (fig. p.38): real page reads per query and the
// measured time inside them.
func BenchmarkF8IOTime(b *testing.B) {
	for _, algo := range bench.SILCVariants() {
		algo := algo
		b.Run(algo.Name, func(b *testing.B) {
			e := sharedEnv(b)
			rng := rand.New(rand.NewSource(5))
			ix := coldIndex(b, e, false)
			workloads := benchWorkloads(e, rng, 0.07, 32)
			var reads float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := workloads[i%len(workloads)]
				res := algo.Run(ix, w.objs, w.q, 10)
				reads += float64(res.Stats.IO.Reads)
			}
			b.ReportMetric(reads/float64(b.N), "page-reads/query")
			b.ReportMetric(float64(e.ReadStats().Time.Microseconds())/float64(b.N), "read-us/query")
		})
	}
}

// BenchmarkBuild measures the one-time precomputation on the benchmark's
// 64×64 road map (seed 1) in two phases: build runs core.Build (one
// Dijkstra and one shortest-path quadtree per vertex), encode writes the
// built index as a paged image.
func BenchmarkBuild(b *testing.B) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var opts core.BuildOptions
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(g, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(g.NumVertices())*float64(b.N)/b.Elapsed().Seconds(), "vertices/s")
	})
	b.Run("encode", func(b *testing.B) {
		ix, err := core.Build(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if _, err := ix.WritePaged(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}

// BenchmarkAblationIERAStar quantifies how much of IER's cost is the
// unguided per-candidate Dijkstra by swapping in A* (ablation; the paper
// uses Dijkstra).
func BenchmarkAblationIERAStar(b *testing.B) {
	for _, algo := range []bench.Algorithm{
		{Name: "IER-Dijkstra", Baseline: true, Run: knn.IER},
		bench.IERAStarAlgorithm(),
	} {
		algo := algo
		b.Run(algo.Name, func(b *testing.B) { sweepBench(b, algo, 0.05, 10) })
	}
}

// BenchmarkAblationCacheSize sweeps the LRU pool fraction, showing the I/O
// sensitivity the paper's 5% setting sits on.
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, fraction := range []float64{0.01, 0.05, 0.25, 1.0} {
		b.Run(fmt.Sprintf("cache=%g", fraction), func(b *testing.B) {
			g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{
				Rows: 48, Cols: 48, Seed: 8, WeightNoise: 0.1,
			})
			if err != nil {
				b.Fatal(err)
			}
			built, err := core.Build(g, core.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			var img bytes.Buffer
			if _, err := built.WritePaged(&img); err != nil {
				b.Fatal(err)
			}
			st, err := store.Open(bytes.NewReader(img.Bytes()), int64(img.Len()), store.OpenOptions{CacheFraction: fraction})
			if err != nil {
				b.Fatal(err)
			}
			ix := core.NewPagedIndex(core.PagedConfig{Graph: g, Source: st, Tracker: st.Tracker()})
			rng := rand.New(rand.NewSource(10))
			n := g.NumVertices()
			perm := rng.Perm(n)
			vs := make([]graph.VertexID, n/20)
			for i := range vs {
				vs[i] = graph.VertexID(perm[i])
			}
			objs := knn.NewObjects(g, vs)
			queries := make([]graph.VertexID, 64)
			for i := range queries {
				queries[i] = graph.VertexID(rng.Intn(n))
			}
			var misses float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := knn.Search(ix, objs, queries[i%len(queries)], 10, knn.VariantKNN)
				misses += float64(res.Stats.IO.Misses)
			}
			b.ReportMetric(misses/float64(b.N), "page-misses/query")
		})
	}
}

// BenchmarkBrowser measures incremental browsing cost per additional
// neighbor (the library's headline cursor API).
func BenchmarkBrowser(b *testing.B) {
	e := sharedEnv(b)
	rng := rand.New(rand.NewSource(11))
	objs := e.ObjectSet(0.05, rng)
	queries := make([]graph.VertexID, 256)
	for i := range queries {
		queries[i] = e.Query(rng)
	}
	ix := coldIndex(b, e, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		browser := knn.NewBrowser(ix, objs, queries[i%len(queries)])
		for j := 0; j < 10; j++ {
			if _, ok := browser.Next(); !ok {
				break
			}
		}
	}
}

// BenchmarkQueryBatch measures the public batch API end to end: one call
// answering 64 queries over the worker pool.
func BenchmarkQueryBatch(b *testing.B) {
	net := testNetwork(b)
	eng := on(b, testDiskIndex(b, net).Engine())
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 50)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	objs := mustObjects(b, net, vertices)
	queries := make([]VertexID, 64)
	for i := range queries {
		queries[i] = VertexID(rng.Intn(net.NumVertices()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.batch(objs, queries, 10)
	}
}

// BenchmarkInProcessQuery times one kNN (k=10) and one range search (radius:
// the median 10th-neighbour distance) on an in-RAM Engine over a 64×64 road
// map at 5% and 30% object density: the searches whose filter phase is one
// region lower bound per child of every object-index node they expand
// (README, "Region lower bound").
func BenchmarkInProcessQuery(b *testing.B) {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 64, Cols: 64, Seed: bench.DefaultSeed})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := BuildIndex(net, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	eng, ctx, n := idx.Engine(), context.Background(), net.NumVertices()
	for _, density := range []float64{0.05, 0.3} {
		rng := rand.New(rand.NewSource(7))
		vs := make([]VertexID, int(density*float64(n)))
		for i, v := range rng.Perm(n)[:len(vs)] {
			vs[i] = VertexID(v)
		}
		objs := mustObjects(b, net, vs)
		qs := make([]VertexID, 256)
		tenth := make([]float64, len(qs))
		for i := range qs {
			qs[i] = VertexID(rng.Intn(n))
			res, err := eng.Query(ctx, objs, qs[i], 10, WithExactDistances())
			if err != nil {
				b.Fatal(err)
			}
			tenth[i] = res.Neighbors[9].Dist
		}
		slices.Sort(tenth)
		radius := tenth[len(tenth)/2]
		b.Run(fmt.Sprintf("knn/%g", density), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(ctx, objs, qs[i%len(qs)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("range/%g", density), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.WithinDistance(ctx, objs, qs[i%len(qs)], radius); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveMutation measures one mutation of the live object world at
// three populations (ROADMAP item 6: sub-linear at 10³/10⁴/10⁵); a
// mutation derives and publishes one successor snapshot, so ns/op should
// barely move with the population.
func BenchmarkLiveMutation(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5} {
		live, randomVertex, rng := liveWorld(b, n)
		b.Run(fmt.Sprintf("Move/%.0e", float64(n)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := live.Move(int32(rng.Intn(n)), randomVertex()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("InsertRemove/%.0e", float64(n)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id, _, err := live.Insert(randomVertex())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := live.Remove(id); err != nil {
					b.Fatal(err)
				}
			}
		})
		live.Close()
	}
}

// pagedBench is the fixture of the paged benchmarks: a 64×64 road map (seed
// 1) written as a paged image, and a seeded random generator for the
// workload drawn over it.
type pagedBench struct {
	net  *Network
	path string
	rng  *rand.Rand
}

func newPagedBench(b *testing.B) *pagedBench {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pb := &pagedBench{net: net, path: filepath.Join(b.TempDir(), "index.silcpg"), rng: rand.New(rand.NewSource(7))}
	idx, err := BuildIndex(net, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := idx.WriteFile(pb.path); err != nil {
		b.Fatal(err)
	}
	return pb
}

// vertex draws a random vertex of the map.
func (pb *pagedBench) vertex() VertexID { return VertexID(pb.rng.Intn(pb.net.NumVertices())) }

// run times op over one page variant: a pass is 64 operations, op(e, i)
// runs the i-th and returns its stats. A cold run opens the image afresh
// before every pass; a warm one runs two untimed passes first, so every run
// the workload touches has passed its full check — its lookups decode only
// the blocks they need, from a restart point — and the pool holds
// what the workload last touched. It reports refinements, page reads and
// decoded blocks per operation.
func (pb *pagedBench) run(b *testing.B, mmap bool, pool float64, cold bool, op func(e *Engine, i int) QueryStats) {
	const pass = 64
	open := func() *Index {
		idx, err := OpenIndex(pb.path, BuildOptions{CacheFraction: pool, Mmap: mmap})
		if err != nil {
			b.Fatal(err)
		}
		return idx
	}
	idx := open()
	if !cold {
		for i := 0; i < 2*pass; i++ {
			op(idx.Engine(), i%pass)
		}
	}
	var refinements, reads, decoded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold && i > 0 && i%pass == 0 {
			b.StopTimer()
			idx.Close()
			idx = open()
			b.StartTimer()
		}
		s := op(idx.Engine(), i%pass)
		refinements += int64(s.Refinements)
		reads += s.PageReads
		decoded += s.BlocksDecoded
	}
	b.StopTimer()
	idx.Close()
	b.ReportMetric(float64(refinements)/float64(b.N), "refinements/op")
	b.ReportMetric(float64(reads)/float64(b.N), "page-reads/op")
	b.ReportMetric(float64(decoded)/float64(b.N), "blocks-decoded/op")
}

// variants runs one sub-benchmark per page variant: page source
// (positioned reads, mmap) × pool (5% and 100% of the image's pages) ×
// cache state (cold, warm).
func (pb *pagedBench) variants(b *testing.B, op func(e *Engine, i int) QueryStats) {
	for _, src := range []string{"ReadAt", "Mmap"} {
		for _, pool := range []float64{0.05, 1} {
			for _, state := range []string{"cold", "warm"} {
				b.Run(fmt.Sprintf("%s/pool=%g/%s", src, pool, state), func(b *testing.B) {
					pb.run(b, src == "Mmap", pool, state == "cold", op)
				})
			}
		}
	}
}

// BenchmarkPagedKNN times one kNN (k=10) over a paged index of a 64×64 road
// map (seed 1) with 5% of its vertices as objects, for each page variant
// (pagedBench.variants; cold = a fresh open before every pass over the 64
// queries, warm = two untimed passes first). The eps=0 and eps=0.1 runs time
// ε-approximate kNN warm behind the 5% pool.
func BenchmarkPagedKNN(b *testing.B) {
	pb := newPagedBench(b)
	n := pb.net.NumVertices()
	vs := make([]VertexID, n/20)
	for i, v := range pb.rng.Perm(n)[:len(vs)] {
		vs[i] = VertexID(v)
	}
	objs := mustObjects(b, pb.net, vs)
	qs := make([]VertexID, 64)
	for i := range qs {
		qs[i] = pb.vertex()
	}
	knn := func(opts ...Option) func(*Engine, int) QueryStats {
		return func(e *Engine, i int) QueryStats {
			res, err := e.Query(context.Background(), objs, qs[i], 10, opts...)
			if err != nil {
				b.Fatal(err)
			}
			return res.Stats
		}
	}
	pb.variants(b, knn())
	for _, eps := range []float64{0, 0.1} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			pb.run(b, false, 0.05, false, knn(WithEpsilon(eps)))
		})
	}
}

// BenchmarkPagedDistance times one exact network distance between random
// vertex pairs of the same paged 64×64 road map, for each page variant — a
// chain of single-block lookups, one per vertex of the shortest path, each
// mostly of a vertex the query never comes back to.
func BenchmarkPagedDistance(b *testing.B) {
	pb := newPagedBench(b)
	pairs := make([][2]VertexID, 64)
	for i := range pairs {
		pairs[i] = [2]VertexID{pb.vertex(), pb.vertex()}
	}
	pb.variants(b, func(e *Engine, i int) QueryStats {
		var st QueryStats
		if _, err := e.Distance(context.Background(), pairs[i][0], pairs[i][1], WithStats(&st)); err != nil {
			b.Fatal(err)
		}
		return st
	})
}
