// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §4 for the index). It
// provides the default experiment environment (a synthetic road network with
// a disk-resident SILC index and a 5% LRU buffer pool, standing in for the
// paper's US eastern-seaboard extract), workload generators, per-algorithm
// aggregation, and plain-text table rendering used by cmd/experiments and
// the package-level benchmarks.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/store"
)

// Env is one experiment environment: a network plus its SILC index, served
// from a paged image in a temp file behind the paper's 5% LRU pool; Close
// releases the file.
type Env struct {
	G *graph.Network
	// Ix is the paged index behind the pool Cold last started.
	Ix *core.Index

	image string          // paged image path
	st    *store.Store    // open store behind Ix
	stats core.BuildStats // of the in-RAM build the image was written from
}

// DefaultRows/DefaultCols size the default experiment lattice (~15k vertices
// after deletions; the paper's network has 91k — shapes, not absolute
// numbers, are the reproduction target). The size is chosen so the paper's
// smallest object fraction, |S| = 0.001N, still exceeds k = 10.
const (
	DefaultRows = 128
	DefaultCols = 128
	DefaultSeed = 2008 // the paper's year; any seed works
)

// cacheFraction is the paper's buffer-pool size: 5% of the database pages.
const cacheFraction = 0.05

// NewEnv builds an environment on a rows x cols lattice, writes the built
// index to a temp paged image and reopens it behind the paper's 5% LRU
// buffer pool, so every page miss the experiments report is a real read.
//
// The evaluation network uses mild weight noise (travel cost close to road
// length, as in the paper's TIGER-derived network): interval tightness — and
// with it the refinement counts the figures measure — is a property of the
// weights, and wildly noisy weights belong in correctness tests, not in the
// evaluation substrate.
func NewEnv(rows, cols int, seed int64) (*Env, error) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{
		Rows: rows, Cols: cols, Seed: seed,
		WeightNoise: 0.1,
	})
	if err != nil {
		return nil, err
	}
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	e := &Env{G: g, stats: ix.Stats()}
	f, err := os.CreateTemp("", "silc-bench-*.silcpg")
	if err != nil {
		return nil, err
	}
	e.image = f.Name()
	_, err = ix.WritePaged(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		_, err = e.Cold()
	}
	if err != nil {
		os.Remove(e.image)
		return nil, err
	}
	return e, nil
}

// Cold returns the index one algorithm's query batch runs against, its
// buffer pool empty: the paged image freshly reopened (the store opened
// before is closed), so no batch rides pages an earlier one faulted in.
func (e *Env) Cold() (core.QueryIndex, error) {
	if e.st != nil {
		e.st.Close()
	}
	st, err := store.OpenFile(e.image, store.OpenOptions{CacheFraction: cacheFraction})
	if err != nil {
		return nil, err
	}
	e.st = st
	e.Ix = core.NewPagedIndex(core.PagedConfig{Source: st})
	return e.Ix, nil
}

// BuildStats returns the statistics of the build the paged image was
// written from; the opened index reports its image's, with no build time.
func (e *Env) BuildStats() core.BuildStats { return e.stats }

// Close releases the paged image.
func (e *Env) Close() error {
	err := e.st.Close()
	if rerr := os.Remove(e.image); err == nil {
		err = rerr
	}
	return err
}

// ObjectSet draws round(fraction*N) distinct random vertices as S (the
// paper's "object distribution |S| as a fraction of N").
func (e *Env) ObjectSet(fraction float64, rng *rand.Rand) *knn.Objects {
	n, m := e.G.NumVertices(), e.objectCount(fraction)
	perm := rng.Perm(n)
	vs := make([]graph.VertexID, m)
	for i := 0; i < m; i++ {
		vs[i] = graph.VertexID(perm[i])
	}
	return knn.NewObjects(e.G, vs)
}

// objectCount is the size of an object set of the given fraction of the
// vertices: at least one object, at most every vertex.
func (e *Env) objectCount(fraction float64) int {
	n := e.G.NumVertices()
	return min(max(int(math.Round(fraction*float64(n))), 1), n)
}

// Query draws a random query vertex.
func (e *Env) Query(rng *rand.Rand) graph.VertexID {
	return graph.VertexID(rng.Intn(e.G.NumVertices()))
}

// Algorithm is a named kNN algorithm.
//
// Each Algorithm owns one reusable query context, so consecutive Run calls
// measure the steady state the query path is designed for (scratch arenas
// warm, zero allocations) rather than cold-start setup. Run is therefore
// not safe for concurrent use; the harness batches queries sequentially.
type Algorithm struct {
	Name string
	Run  func(core.QueryIndex, *knn.Objects, graph.VertexID, int) knn.Result
}

// pooled wraps a Spec-style entry point with a persistent query context,
// re-armed before every call like the Engine layer's context pool does.
func pooled(run func(core.QueryIndex, *core.QueryContext, *knn.Objects, graph.VertexID, knn.Spec) knn.Result) func(core.QueryIndex, *knn.Objects, graph.VertexID, int) knn.Result {
	qc := core.NewQueryContext()
	return func(ix core.QueryIndex, o *knn.Objects, q graph.VertexID, k int) knn.Result {
		qc.ResetForReuse(nil)
		return run(ix, qc, o, q, knn.UnboundedSpec(k, knn.VariantKNN))
	}
}

// Algorithms returns the full comparison set in the paper's order.
func Algorithms() []Algorithm {
	algos := []Algorithm{
		{Name: "INE", Run: pooled(knn.INESpec)},
		{Name: "IER", Run: pooled(knn.IERSpec)},
	}
	for _, v := range knn.Variants {
		v := v
		qc := core.NewQueryContext()
		algos = append(algos, Algorithm{
			Name: v.String(),
			Run: func(ix core.QueryIndex, o *knn.Objects, q graph.VertexID, k int) knn.Result {
				qc.ResetForReuse(nil)
				return knn.SearchSpec(ix, qc, o, q, knn.UnboundedSpec(k, v))
			},
		})
	}
	return algos
}

// Agg aggregates query statistics for one algorithm at one sweep point.
// All means are per query.
type Agg struct {
	Algorithm string
	Queries   int

	CPUTime time.Duration
	// ReadTime is the measured wall-clock time inside the store's page
	// reads. The pool's counters are per query; the store's clock is not,
	// so this is the batch total divided by the query count.
	ReadTime time.Duration

	MaxQueue    float64
	Refinements float64
	Lookups     float64
	KMinAccepts float64 // per query
	LOps        float64
	Settled     float64
	IOAccesses  float64
	IOMisses    float64 // pool misses
	IOReads     float64 // real page reads

	// Estimate-quality ratios, averaged over queries where defined.
	D0kOverDk      float64
	KMinDistOverDk float64
	ratioCount     int

	sumCPU time.Duration
}

func (a *Agg) add(s knn.Stats) {
	a.Queries++
	a.sumCPU += s.CPU
	a.MaxQueue += float64(s.MaxQueue)
	a.Refinements += float64(s.Refinements)
	a.Lookups += float64(s.Lookups)
	a.KMinAccepts += float64(s.KMinDistAccepts)
	a.LOps += float64(s.LOps)
	a.Settled += float64(s.Settled)
	a.IOAccesses += float64(s.IO.Accesses())
	a.IOMisses += float64(s.IO.Misses)
	a.IOReads += float64(s.IO.Reads)
	if s.D0k > 0 && s.DkFinal > 0 {
		a.D0kOverDk += s.D0k / s.DkFinal
		a.KMinDistOverDk += s.KMinDist0 / s.DkFinal
		a.ratioCount++
	}
}

// finish turns the sums into per-query means; readTime is the store's
// measured read time over the whole batch.
func (a *Agg) finish(readTime time.Duration) {
	q := float64(a.Queries)
	if a.Queries == 0 {
		return
	}
	a.CPUTime = a.sumCPU / time.Duration(a.Queries)
	a.ReadTime = readTime / time.Duration(a.Queries)
	a.MaxQueue /= q
	a.Refinements /= q
	a.Lookups /= q
	a.KMinAccepts /= q
	a.LOps /= q
	a.Settled /= q
	a.IOAccesses /= q
	a.IOMisses /= q
	a.IOReads /= q
	if a.ratioCount > 0 {
		a.D0kOverDk /= float64(a.ratioCount)
		a.KMinDistOverDk /= float64(a.ratioCount)
	}
}

// SweepSpec is one point of the evaluation sweeps: the paper varies either
// the object fraction |S|/N at fixed k, or k at fixed |S| = 0.07N.
type SweepSpec struct {
	Label    string
	Fraction float64
	K        int
}

// VarySSpec reproduces the paper's |S| sweep at k=10.
func VarySSpec() []SweepSpec {
	out := []SweepSpec{}
	for _, f := range []float64{0.001, 0.01, 0.05, 0.2} {
		out = append(out, SweepSpec{Label: fmt.Sprintf("|S|=%gN", f), Fraction: f, K: 10})
	}
	return out
}

// VaryKSpec reproduces the paper's k sweep at |S| = 0.07N.
func VaryKSpec() []SweepSpec {
	out := []SweepSpec{}
	for _, k := range []int{5, 10, 50, 100, 300} {
		out = append(out, SweepSpec{Label: fmt.Sprintf("k=%d", k), Fraction: 0.07, K: k})
	}
	return out
}

// SweepPoint is the aggregated outcome of one spec across all algorithms.
// Objects is the size of each of its object sets; below Spec.K no query can
// return k neighbours.
type SweepPoint struct {
	Spec    SweepSpec
	Objects int
	Per     map[string]*Agg
}

// Sweep runs queriesPer random (object set, query) pairs per spec through
// every algorithm, regenerating object sets per query as the paper does
// ("each query run on at least 50 random input datasets of same size").
//
// Every algorithm replays the identical workload, and each algorithm's batch
// starts from a cold store (Cold) and warms its own cache across the batch
// — running the algorithms interleaved on one pool would let later
// algorithms ride the pages the first one faulted in. The graph-expansion
// baselines run on the same index and touch no page of it.
func (e *Env) Sweep(specs []SweepSpec, queriesPer int, algos []Algorithm, seed int64) ([]SweepPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	points := make([]SweepPoint, 0, len(specs))
	for _, spec := range specs {
		type workload struct {
			objs *knn.Objects
			q    graph.VertexID
		}
		queries := make([]workload, queriesPer)
		for qi := range queries {
			queries[qi] = workload{objs: e.ObjectSet(spec.Fraction, rng), q: e.Query(rng)}
		}
		pt := SweepPoint{Spec: spec, Objects: e.objectCount(spec.Fraction), Per: make(map[string]*Agg, len(algos))}
		for _, a := range algos {
			agg := &Agg{Algorithm: a.Name}
			pt.Per[a.Name] = agg
			ix, err := e.Cold()
			if err != nil {
				return nil, err
			}
			for _, w := range queries {
				res := a.Run(ix, w.objs, w.q, spec.K)
				if res.Err != nil {
					return nil, fmt.Errorf("bench: %s query at vertex %d: %w", a.Name, w.q, res.Err)
				}
				agg.add(res.Stats)
			}
			agg.finish(e.st.Pager().Pool().ReadTime())
		}
		points = append(points, pt)
	}
	return points, nil
}

// FitLogLogSlope fits a least-squares line to (log x, log y) and returns its
// slope — the storage-growth exponent of the paper's fig. p.16.
func FitLogLogSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("bench: need >= 2 points with equal lengths")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// SortedAlgorithmNames returns the map keys of a sweep point in the paper's
// presentation order.
func SortedAlgorithmNames(per map[string]*Agg) []string {
	order := map[string]int{"INE": 0, "IER": 1, "INN": 2, "KNN-I": 3, "KNN": 4, "KNN-M": 5}
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		if iok && jok {
			return oi < oj
		}
		if iok != jok {
			return iok
		}
		return names[i] < names[j]
	})
	return names
}
