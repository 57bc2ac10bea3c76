// Command silcquery answers network-distance queries over a SILC index:
// k-nearest-neighbor search, exact distances, shortest paths, and
// progressive-refinement traces.
//
// Usage:
//
//	silcquery -rows 48 -cols 48 -mode knn -q 17 -k 5 -objects 0.05 -method KNN
//	silcquery -rows 48 -cols 48 -mode knn -q 17 -k 5 -eps 0.25 -max-dist 0.8
//	silcquery -net network.txt -mode dist -q 17 -dest 423
//	silcquery -net network.txt -mode dist -q 17 -dest 423 -eps 0.1
//	silcquery -net network.txt -mode path -q 17 -dest 423
//	silcquery -net network.txt -mode refine -q 17 -dest 423
//	silcquery -rows 64 -cols 64 -partitions 8 -mode dist -q 17 -dest 423
//
// -partitions N > 1 queries through the sharded index; -index accepts both
// monolithic and sharded paged images (the format is sniffed). -eps applies
// to knn and dist: it asks for ε-approximate ranking, or an ε-approximate
// distance printed with its certifying interval (fewer refinements,
// distances certified within (1+ε)×); -max-dist bounds knn results to a
// radius. -timeout aborts a query
// through context cancellation. The refine trace prints each refinement's
// interval; on a monolithic index it also names the exact-prefix vertex.
// -stats appends one JSON object per query to stdout with the
// query's own statistics (refinements, page traffic, phase timings) and
// the engine-wide I/O aggregates; -trace additionally times the
// filter/refinement phase split.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"silc"
)

func main() {
	var (
		netFile = flag.String("net", "", "network file (generated if empty)")
		idxFile = flag.String("index", "", "prebuilt index file from silcbuild -o (built fresh if empty)")
		rows    = flag.Int("rows", 48, "generated lattice rows")
		cols    = flag.Int("cols", 48, "generated lattice cols")
		seed    = flag.Int64("seed", 1, "generator / workload seed")
		mode    = flag.String("mode", "knn", "query mode: knn, dist, path, refine")
		q       = flag.Int("q", 0, "query vertex")
		dest    = flag.Int("dest", 1, "destination vertex (dist, path, refine)")
		k       = flag.Int("k", 5, "neighbor count (knn)")
		objFrac = flag.Float64("objects", 0.05, "object fraction of N (knn)")
		method  = flag.String("method", "KNN", "algorithm: KNN, INN, KNN-I, KNN-M, INE, IER")
		eps     = flag.Float64("eps", 0, "ε-approximate ranking (knn) and distance (dist); 0 = exact")
		maxDist = flag.Float64("max-dist", 0, "bound results to network distance ≤ d (knn; 0 = unbounded)")
		timeout = flag.Duration("timeout", 0, "per-query timeout (0 = none)")
		parts   = flag.Int("partitions", 1, "spatial partitions (>1 queries the sharded index)")
		stats   = flag.Bool("stats", false, "print per-query statistics and engine I/O aggregates as JSON")
		trace   = flag.Bool("trace", false, "time the filter/refinement phase split (implies the timing columns in -stats)")
	)
	flag.Parse()

	net, err := loadOrGenerate(*netFile, *rows, *cols, *seed)
	if err != nil {
		fail(err)
	}
	var eng *silc.Engine
	if *idxFile != "" {
		// OpenEngine sniffs the format; paged indexes stay on disk and the
		// engine owns the file handle (released on process exit).
		eng, err = silc.OpenEngine(*idxFile, net, silc.BuildOptions{})
		if err != nil {
			fail(err)
		}
	} else if eng, err = silc.Build(net, silc.BuildOptions{Partitions: *parts}); err != nil {
		fail(err)
	}
	src, dst := silc.VertexID(*q), silc.VertexID(*dest)
	if *trace {
		eng.SetTracing(true)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	switch *mode {
	case "knn":
		runKNN(ctx, net, eng, src, *k, *objFrac, *method, *eps, *maxDist, *seed, *stats)
	case "dist":
		iv, err := eng.DistanceInterval(ctx, src, dst)
		if err != nil {
			fail(err)
		}
		var st silc.QueryStats
		d, err := eng.Distance(ctx, src, dst, silc.WithStats(&st), silc.WithEpsilon(*eps))
		if err != nil {
			fail(err)
		}
		fmt.Printf("interval (no refinement): [%.6f, %.6f]\n", iv.Lo, iv.Hi)
		if *eps > 0 {
			cert, steps := certify(eng, src, dst, *eps)
			fmt.Printf("ε-approximate distance:   %.6f (ε = %g)\n", d, *eps)
			fmt.Printf("certifying interval:      [%.6f, %.6f] after %d refinement steps\n", cert.Lo, cert.Hi, steps)
		} else {
			fmt.Printf("exact network distance:   %.6f\n", d)
		}
		fmt.Printf("euclidean distance:       %.6f\n", net.Euclid(src, dst))
		if *stats {
			printStats(eng, st)
		}
	case "path":
		var st silc.QueryStats
		path, err := eng.ShortestPath(ctx, src, dst, silc.WithStats(&st))
		if err != nil {
			fail(err)
		}
		fmt.Printf("shortest path, %d hops:\n", len(path)-1)
		for _, v := range path {
			p := net.Point(v)
			fmt.Printf("  %6d  (%.4f, %.4f)\n", v, p.X, p.Y)
		}
		if *stats {
			printStats(eng, st)
		}
	case "refine":
		r, err := eng.NewRefiner(src, dst)
		if err != nil {
			fail(err)
		}
		iv := r.Interval()
		fmt.Printf("step %2d: [%.6f, %.6f] width %.6f\n", 0, iv.Lo, iv.Hi, iv.Hi-iv.Lo)
		for !r.Done() && !r.OutOfRange() {
			r.Step()
			iv = r.Interval()
			fmt.Printf("step %2d: [%.6f, %.6f] width %.6f", r.Steps(), iv.Lo, iv.Hi, iv.Hi-iv.Lo)
			if via, acc, ok := r.Via(); ok {
				fmt.Printf("  via %d at exact %.6f", via, acc)
			}
			fmt.Println()
		}
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
}

// certify steps a refiner for (src, dst) to the interval Distance stops at
// under eps, the first with hi ≤ (1+eps)·lo, and returns it with the steps
// it took. Its lo is the ε-approximate distance, and the true distance lies
// inside it.
func certify(eng *silc.Engine, src, dst silc.VertexID, eps float64) (silc.Interval, int) {
	r, err := eng.NewRefiner(src, dst)
	if err != nil {
		fail(err)
	}
	iv := r.Interval()
	for iv.Hi > (1+eps)*iv.Lo && !r.Done() && r.Step() {
		iv = r.Interval()
	}
	return iv, r.Steps()
}

func runKNN(ctx context.Context, net *silc.Network, eng *silc.Engine, q silc.VertexID, k int, frac float64, methodName string, eps, maxDist float64, seed int64, stats bool) {
	rng := rand.New(rand.NewSource(seed + 1))
	m := int(frac * float64(net.NumVertices()))
	if m < 1 {
		m = 1
	}
	perm := rng.Perm(net.NumVertices())
	vertices := make([]silc.VertexID, m)
	for i := 0; i < m; i++ {
		vertices[i] = silc.VertexID(perm[i])
	}
	objs, err := silc.NewObjectSet(net, vertices)
	if err != nil {
		fail(err)
	}

	method, err := silc.ParseMethod(methodName)
	if err != nil {
		fail(err)
	}
	opts := []silc.Option{silc.WithMethod(method)}
	if eps > 0 {
		opts = append(opts, silc.WithEpsilon(eps))
	}
	if maxDist > 0 {
		opts = append(opts, silc.WithMaxDistance(maxDist))
	}
	res, err := eng.Query(ctx, objs, q, k, opts...)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s: %d neighbors of vertex %d over |S|=%d (sorted=%v)\n",
		method, len(res.Neighbors), q, objs.Len(), res.Sorted)
	for i, n := range res.Neighbors {
		marker := "~"
		if n.Exact {
			marker = "="
		}
		fmt.Printf("  %2d. object %4d at vertex %6d  dist %s %.6f  [%.6f, %.6f]\n",
			i+1, n.ID, n.Vertex, marker, n.Dist, n.Interval.Lo, n.Interval.Hi)
	}
	s := res.Stats
	fmt.Printf("stats: maxQueue=%d refinements=%d lookups=%d settled=%d cpu=%v\n",
		s.MaxQueue, s.Refinements, s.Lookups, s.Settled, s.CPUTime)
	if stats {
		printStats(eng, s)
	}
}

// printStats emits one JSON object pairing the finished query's own
// statistics with the engine-wide I/O aggregates — on a warm pool the
// per-query figures explain which part of the pool-wide traffic this
// query caused. Durations are reported in microseconds.
func printStats(eng *silc.Engine, st silc.QueryStats) {
	io := eng.IOStats()
	out := map[string]any{
		"query": map[string]any{
			"method":         st.Method,
			"max_queue":      st.MaxQueue,
			"refinements":    st.Refinements,
			"lookups":        st.Lookups,
			"settled":        st.Settled,
			"heap_pushes":    st.HeapPushes,
			"page_hits":      st.PageHits,
			"page_misses":    st.PageMisses,
			"page_reads":     st.PageReads,
			"evictions":      st.Evictions,
			"blocks_decoded": st.BlocksDecoded,
			"gateway_routes": st.GatewayRoutes,
			"cpu_time_us":    st.CPUTime.Microseconds(),
			"filter_time_us": st.FilterTime.Microseconds(),
			"refine_time_us": st.RefineTime.Microseconds(),
		},
		"engine_io": map[string]any{
			"page_hits":           io.PageHits,
			"page_misses":         io.PageMisses,
			"page_reads":          io.PageReads,
			"measured_io_time_us": io.MeasuredIOTime.Microseconds(),
		},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out)
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "silcquery:", err)
	os.Exit(1)
}
