package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/pqueue"
	"silc/internal/quadtree"
)

// Build precomputes the SILC index for g. It returns an error if the network
// is not strongly connected (every shortest-path quadtree must color every
// vertex), unless AllowUnreachable lets it color unreachable vertices out of
// range.
//
// The per-source searches run in Morton-rank space (see rankGraph), so each
// one writes its colors and distances in the order the quadtree builder
// reads them. The image depends on the order in which a search settles
// vertices — on a tie between two shortest paths the first hop is the one
// settled first — and that order is pqueue.Min's pop order for the pushes
// of a plain Dijkstra over g's adjacency lists.
func Build(g *graph.Network, opts BuildOptions) (*Index, error) {
	start := time.Now()
	n := g.NumVertices()
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	rg := newRankGraph(g)
	codes := make([]geom.Code, n)
	for i, v := range rg.order {
		codes[i] = g.Code(v)
	}
	qb := quadtree.NewBuilder(codes) // read-only after construction; shared

	trees := make([]quadtree.Tree, n)
	errs := make([]error, workers)
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := newSourceSearch(n)
			for {
				mu.Lock()
				src := next
				next++
				mu.Unlock()
				if src >= int64(n) {
					return
				}
				source := graph.VertexID(src)
				if err := s.run(rg, g.MortonRank(source), opts.AllowUnreachable); err != nil {
					errs[w] = err
					return
				}
				trees[source] = *qb.Build(s.colors, s.ratios)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	ix := &Index{g: g, trees: trees, lenient: opts.AllowUnreachable}
	ix.stats = BuildStats{
		Vertices:  n,
		Edges:     g.NumEdges(),
		MinBlocks: math.MaxInt,
		BuildTime: time.Since(start),
	}
	for i := range trees {
		b := trees[i].NumBlocks()
		ix.stats.TotalBlocks += int64(b)
		if b < ix.stats.MinBlocks {
			ix.stats.MinBlocks = b
		}
		if b > ix.stats.MaxBlocks {
			ix.stats.MaxBlocks = b
		}
	}
	ix.stats.TotalBytes = ix.stats.TotalBlocks * quadtree.EncodedSizeBytes
	return ix, nil
}

// rankGraph is g renumbered by Morton rank, built once per build and
// shared read-only by the workers: arcs[off[r]:off[r+1]] are the out-arcs
// of the vertex at rank r in its adjacency-list order, so an arc's index
// there is the color of a first hop along it.
type rankGraph struct {
	order []graph.VertexID // rank -> vertex id
	off   []int32
	arcs  []arc
	pts   []geom.Point // rank -> position
}

type arc struct {
	to int32 // head's Morton rank
	w  float64
}

func newRankGraph(g *graph.Network) *rankGraph {
	order := g.MortonOrder()
	rg := &rankGraph{
		order: order,
		off:   make([]int32, len(order)+1),
		arcs:  make([]arc, 0, g.NumEdges()),
		pts:   make([]geom.Point, len(order)),
	}
	for r, v := range order {
		targets, weights := g.Neighbors(v)
		for i, t := range targets {
			rg.arcs = append(rg.arcs, arc{to: g.MortonRank(t), w: weights[i]})
		}
		rg.off[r+1] = int32(len(rg.arcs))
		rg.pts[r] = g.Point(v)
	}
	return rg
}

// sourceSearch is one worker's per-source state, indexed by Morton rank:
// after run, colors and ratios are the quadtree builder's input.
type sourceSearch struct {
	dist   []float64
	colors []int32
	ratios []float64
	heap   pqueue.Min[int32]
}

func newSourceSearch(n int) *sourceSearch {
	return &sourceSearch{
		dist:   make([]float64, n),
		colors: make([]int32, n),
		ratios: make([]float64, n),
	}
}

// run is Dijkstra from the vertex at rank src that carries each vertex's
// color — the index of the first arc of the path in src's adjacency list —
// through the relaxations, then fills colors and ratios. Relaxing src's
// arcs before the loop leaves the heap as popping src would. A pushed key
// is strictly below every earlier key of the same vertex, so an entry
// whose key exceeds its vertex's distance is stale. Colors follow the
// strict < of the relaxation: among parallel arcs the first of minimum
// weight wins. A vertex the search never reaches is out of range when
// lenient and an error otherwise.
func (s *sourceSearch) run(rg *rankGraph, src int32, lenient bool) error {
	inf := math.Inf(1)
	dist, colors, arcs, off := s.dist, s.colors, rg.arcs, rg.off
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	h := &s.heap
	h.Reset()
	for i, a := range arcs[off[src]:off[src+1]] {
		if a.w < dist[a.to] {
			dist[a.to] = a.w
			colors[a.to] = int32(i)
			h.Push(a.w, a.to)
		}
	}
	for h.Len() > 0 {
		d, v := h.Pop()
		if d > dist[v] {
			continue
		}
		c := colors[v]
		for _, a := range arcs[off[v]:off[v+1]] {
			if nd := d + a.w; nd < dist[a.to] {
				dist[a.to] = nd
				colors[a.to] = c
				h.Push(nd, a.to)
			}
		}
	}

	srcPt := rg.pts[src]
	for r, d := range dist {
		switch {
		case int32(r) == src:
			colors[r], s.ratios[r] = quadtree.NoColor, 0
		case d == inf && lenient:
			colors[r], s.ratios[r] = quadtree.OutOfRange, 0
		case d == inf:
			return fmt.Errorf("core: vertex %d unreachable from %d; SILC requires a strongly connected network", rg.order[r], rg.order[src])
		default:
			s.ratios[r] = d / srcPt.Dist(rg.pts[r])
		}
	}
	return nil
}
