// Package-level benchmarks of the public engine, the build and the paged
// store: the build, paged kNN and distance per page variant, browsing,
// batches, in-process kNN and range, live mutations, and the cache-size
// ablation.
// The paper's tables and figures have one renderer, cmd/experiments
// (DESIGN.md §4); these benchmarks time what it does not, under the standard
// Go tooling (`go test -run '^$' -bench . -benchmem`).
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
		env, envErr = bench.NewEnv(64, 64, bench.DefaultSeed)
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
				res := knn.SearchSpec(ix, nil, objs, queries[i%len(queries)], knn.UnboundedSpec(10, knn.VariantKNN))
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
	ix, err := e.Cold()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		browser := knn.NewBrowserSpec(ix, nil, objs, queries[i%len(queries)], knn.UnboundedSpec(0, knn.VariantINN))
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
	eng := on(b, testDiskIndex(b, net))
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
	idx, err := Build(net, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	eng, ctx, n := idx, context.Background(), net.NumVertices()
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
// 1), its in-RAM engine and the paged image written from it, and a seeded
// random generator for the workload drawn over it.
type pagedBench struct {
	net  *Network
	ram  *Engine
	path string
	rng  *rand.Rand
}

func newPagedBench(b *testing.B) *pagedBench {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pb := &pagedBench{net: net, path: filepath.Join(b.TempDir(), "index.silcpg"), rng: rand.New(rand.NewSource(7))}
	if pb.ram, err = Build(net, BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	if _, err := pb.ram.WriteFile(pb.path); err != nil {
		b.Fatal(err)
	}
	return pb
}

// vertex draws a random vertex of the map.
func (pb *pagedBench) vertex() VertexID { return VertexID(pb.rng.Intn(pb.net.NumVertices())) }

// The page sources of the paged benchmarks: what fills a missed frame.
var pageSources = []string{
	"ReaderAt", // OpenEngineAt over an *os.File: a positioned read per miss
	"File",     // OpenEngine: a copy out of the file's mapping per miss
}

// openSource opens the image at path through page source src (one of
// pageSources) behind a pool of the given fraction. The engine owns
// whatever the open took: Close releases it.
func openSource(tb testing.TB, path, src string, pool float64) *Engine {
	tb.Helper()
	opts := BuildOptions{CacheFraction: pool}
	if src != "ReaderAt" {
		eng, err := OpenEngine(path, nil, opts)
		if err != nil {
			tb.Fatal(err)
		}
		return eng
	}
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := OpenEngineAt(f, info.Size(), nil, opts)
	if err != nil {
		tb.Fatal(err)
	}
	eng.closer = f
	return eng
}

// run times op over the engine open returns: a pass is 64 operations,
// op(e, i) runs the i-th and returns its stats. A cold run opens the engine
// afresh before every pass; a warm one runs two untimed passes first, so a
// paged engine's pool holds what the workload last touched. A lookup
// decodes the same blocks either way. It reports refinements, page reads
// and decoded blocks per operation.
func (pb *pagedBench) run(b *testing.B, open func() *Engine, cold bool, op func(e *Engine, i int) QueryStats) {
	const pass = 64
	idx := open()
	if !cold {
		for i := 0; i < 2*pass; i++ {
			op(idx, i%pass)
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
		s := op(idx, i%pass)
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

// paged returns an opener of the image through page source src behind a
// pool of the given fraction.
func (pb *pagedBench) paged(b *testing.B, src string, pool float64) func() *Engine {
	return func() *Engine { return openSource(b, pb.path, src, pool) }
}

// variants runs one sub-benchmark per page variant: page source
// (pageSources) × pool (5% and 100% of the image's block pages) × cache
// state (cold, warm); and RAM, the in-RAM engine the image was written
// from, so that the warm paged to in-RAM ratio is measured on the same
// queries.
func (pb *pagedBench) variants(b *testing.B, op func(e *Engine, i int) QueryStats) {
	for _, src := range pageSources {
		for _, pool := range []float64{0.05, 1} {
			for _, state := range []string{"cold", "warm"} {
				b.Run(fmt.Sprintf("%s/pool=%g/%s", src, pool, state), func(b *testing.B) {
					pb.run(b, pb.paged(b, src, pool), state == "cold", op)
				})
			}
		}
	}
	b.Run("RAM", func(b *testing.B) {
		pb.run(b, func() *Engine { return pb.ram }, false, op)
	})
}

// BenchmarkPagedKNN times one kNN (k=10) over a paged index of a 64×64 road
// map (seed 1) with 5% of its vertices as objects, for each page variant
// (pagedBench.variants; cold = a fresh open before every pass over the 64
// queries, warm = two untimed passes first) and in RAM. The eps=0 and
// eps=0.1 runs time ε-approximate kNN warm behind the 5% pool.
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
			pb.run(b, pb.paged(b, "File", 0.05), false, knn(WithEpsilon(eps)))
		})
	}
}

// BenchmarkPagedDistance times one exact network distance between random
// vertex pairs of the same 64×64 road map, for each page variant and in
// RAM. A paged distance is a chain of single-block lookups, one per vertex
// of the shortest path, each mostly of a vertex the query never comes back
// to.
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
