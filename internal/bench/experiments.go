package bench

import (
	"fmt"
	"math/rand"
	"time"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/oracle"
	"silc/internal/sssp"
)

// StorageRow is one point of the storage-growth experiment (fig. p.16):
// Morton block count as a function of network size.
type StorageRow struct {
	Lattice   int
	Vertices  int
	Edges     int
	Blocks    int64
	Bytes     int64
	PerVertex float64
	BuildTime time.Duration
}

// StorageGrowth builds SILC indexes over increasingly large road networks
// and returns the measurements plus the fitted log-log slope (the paper
// reports 1.5).
func StorageGrowth(lattices []int, seed int64) ([]StorageRow, float64, error) {
	rows := make([]StorageRow, 0, len(lattices))
	xs := make([]float64, 0, len(lattices))
	ys := make([]float64, 0, len(lattices))
	for _, rc := range lattices {
		g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: rc, Cols: rc, Seed: seed})
		if err != nil {
			return nil, 0, err
		}
		ix, err := core.Build(g, core.BuildOptions{})
		if err != nil {
			return nil, 0, err
		}
		s := ix.Stats()
		rows = append(rows, StorageRow{
			Lattice:   rc,
			Vertices:  s.Vertices,
			Edges:     s.Edges,
			Blocks:    s.TotalBlocks,
			Bytes:     s.TotalBytes,
			PerVertex: s.BlocksPerVertex(),
			BuildTime: s.BuildTime,
		})
		xs = append(xs, float64(s.Vertices))
		ys = append(ys, float64(s.TotalBlocks))
	}
	return rows, FitLogLogSlope(xs, ys), nil
}

// VisitRow is one point-to-point query of the Dijkstra-vs-SILC comparison
// (the paper's motivating example: Dijkstra settles 3191 of 4233 vertices
// for a 76-edge path, while SILC touches only path vertices).
type VisitRow struct {
	PathHops        int
	DijkstraSettled int
	AStarSettled    int
	SILCSteps       int
}

// VisitSummary aggregates the comparison.
type VisitSummary struct {
	Queries          int
	NetworkVertices  int
	MeanPathHops     float64
	MeanDijkstra     float64
	MeanAStar        float64
	MeanSILC         float64
	DijkstraFraction float64 // mean settled / network size
}

// DijkstraVsSILC measures, for random point-to-point queries, how many
// vertices each method touches to retrieve the shortest path.
func (e *Env) DijkstraVsSILC(queries int, seed int64) ([]VisitRow, VisitSummary) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]VisitRow, 0, queries)
	sum := VisitSummary{Queries: queries, NetworkVertices: e.G.NumVertices()}
	for i := 0; i < queries; i++ {
		s := e.Query(rng)
		d := e.Query(rng)
		if s == d {
			d = graph.VertexID((int(d) + 1) % e.G.NumVertices())
		}
		dij := sssp.ShortestPath(e.G, s, d)
		ast := sssp.AStar(e.G, s, d)
		path := e.Ix.PathCtx(nil, s, d)
		row := VisitRow{
			PathHops:        len(path) - 1,
			DijkstraSettled: dij.Settled,
			AStarSettled:    ast.Settled,
			SILCSteps:       len(path) - 1, // one block lookup per hop
		}
		rows = append(rows, row)
		sum.MeanPathHops += float64(row.PathHops)
		sum.MeanDijkstra += float64(row.DijkstraSettled)
		sum.MeanAStar += float64(row.AStarSettled)
		sum.MeanSILC += float64(row.SILCSteps)
	}
	q := float64(queries)
	sum.MeanPathHops /= q
	sum.MeanDijkstra /= q
	sum.MeanAStar /= q
	sum.MeanSILC /= q
	sum.DijkstraFraction = sum.MeanDijkstra / float64(sum.NetworkVertices)
	return rows, sum
}

// ModelRow is one row of the storage-model trade-off table (paper p.11).
type ModelRow struct {
	Model     string
	Bytes     int64
	BuildTime time.Duration
	DistQuery time.Duration // mean exact (or eps-approximate) distance query
	PathQuery time.Duration // mean path retrieval; 0 if unsupported
	Note      string
}

// StorageModels measures the space/query-time trade-off across every
// storage model on one network small enough for the O(n^3) strawman.
func StorageModels(rows, cols int, seed int64, eps float64, queries int) ([]ModelRow, error) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ s, d graph.VertexID }
	pairs := make([]pair, queries)
	for i := range pairs {
		pairs[i] = pair{
			s: graph.VertexID(rng.Intn(g.NumVertices())),
			d: graph.VertexID(rng.Intn(g.NumVertices())),
		}
	}
	timeIt := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start) / time.Duration(len(pairs))
	}
	var out []ModelRow

	// Dijkstra: no precomputation, per-query graph search.
	dist := timeIt(func() {
		for _, p := range pairs {
			sssp.ShortestPath(g, p.s, p.d)
		}
	})
	out = append(out, ModelRow{
		Model: "Dijkstra", Bytes: int64(g.NumEdges()) * 12,
		DistQuery: dist, PathQuery: dist,
		Note: "O(m+n) space, O(m+n log n) query",
	})

	// Explicit all-pairs paths.
	start := time.Now()
	exp, err := oracle.BuildExplicitPaths(g)
	if err != nil {
		return nil, err
	}
	buildExp := time.Since(start)
	out = append(out, ModelRow{
		Model: "Explicit paths", Bytes: exp.SizeBytes(), BuildTime: buildExp,
		DistQuery: timeIt(func() {
			for _, p := range pairs {
				exp.Distance(p.s, p.d)
			}
		}),
		PathQuery: timeIt(func() {
			for _, p := range pairs {
				exp.Path(p.s, p.d)
			}
		}),
		Note: "O(n^3) space, O(1) query",
	})

	// Next-hop matrix.
	start = time.Now()
	nh, err := oracle.BuildNextHop(g)
	if err != nil {
		return nil, err
	}
	buildNH := time.Since(start)
	out = append(out, ModelRow{
		Model: "Next-hop matrix", Bytes: nh.SizeBytes(), BuildTime: buildNH,
		DistQuery: timeIt(func() {
			for _, p := range pairs {
				nh.Distance(p.s, p.d)
			}
		}),
		PathQuery: timeIt(func() {
			for _, p := range pairs {
				nh.Path(p.s, p.d)
			}
		}),
		Note: "O(n^2) space, O(k) query",
	})

	// SILC.
	start = time.Now()
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	buildSILC := time.Since(start)
	out = append(out, ModelRow{
		Model: "SILC", Bytes: ix.Stats().TotalBytes, BuildTime: buildSILC,
		DistQuery: timeIt(func() {
			for _, p := range pairs {
				ix.DistanceCtx(nil, p.s, p.d)
			}
		}),
		PathQuery: timeIt(func() {
			for _, p := range pairs {
				ix.PathCtx(nil, p.s, p.d)
			}
		}),
		Note: "O(n^1.5) space, O(k log n) query",
	})

	// SILC's own refiner, stopped at a (1+eps) certificate: SILC's bytes,
	// no build of its own, distances only.
	out = append(out, ModelRow{
		Model: fmt.Sprintf("SILC, ε = %g", eps), Bytes: ix.Stats().TotalBytes,
		DistQuery: timeIt(func() {
			for _, p := range pairs {
				core.ApproxDistance(ix, nil, p.s, p.d, eps)
			}
		}),
		Note: "SILC's space, (1+eps)-approx distance only, no extra state",
	})
	return out, nil
}
