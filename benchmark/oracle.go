package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"silc/internal/graph"
)

// oracle answers every query the slow, certain way: its own Dijkstra from
// the query vertex over the benchmark's copy of the network, stopped as soon
// as the answer is decided, against the benchmark's own object table. It
// shares no code with the index, its builder or its query algorithms.
type oracle struct {
	g *graph.Network
	// The adjacency, copied out of g once: explore walks its own arrays.
	first  []int32 // edges of v are [first[v], first[v+1])
	target []int32
	weight []float64
	dist   []float64 // valid where stamp == epoch
	stamp  []uint32
	done   []uint32 // settled where done == epoch
	epoch  uint32
	heap   vertexHeap
}

func newOracle(g *graph.Network) *oracle {
	n := g.NumVertices()
	o := &oracle{g: g, first: make([]int32, n+1), dist: make([]float64, n), stamp: make([]uint32, n), done: make([]uint32, n)}
	for v := 0; v < n; v++ {
		targets, weights := g.Neighbors(graph.VertexID(v))
		for i, t := range targets {
			o.target = append(o.target, int32(t))
			o.weight = append(o.weight, weights[i])
		}
		o.first[v+1] = int32(len(o.target))
	}
	return o
}

type heapItem struct {
	d float64
	v int32
}

// vertexHeap is a binary min-heap on d, written out here so that the oracle
// shares not even a queue with the code it checks and a run's tens of
// thousands of explores do not allocate.
type vertexHeap []heapItem

func (h *vertexHeap) push(it heapItem) {
	*h = append(*h, it)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if a[parent].d <= a[i].d {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
}

func (h *vertexHeap) pop() heapItem {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		l, r, least := 2*i+1, 2*i+2, i
		if l < last && a[l].d < a[least].d {
			least = l
		}
		if r < last && a[r].d < a[least].d {
			least = r
		}
		if least == i {
			break
		}
		a[i], a[least] = a[least], a[i]
		i = least
	}
	*h = a
	return top
}

// explore settles vertices in increasing distance from src and hands each to
// visit, until visit returns false or the network is exhausted. Afterwards
// settled reports the distance of every vertex visit has seen.
func (o *oracle) explore(src uint32, visit func(v int32, d float64) bool) {
	o.epoch++
	o.heap = o.heap[:0]
	o.dist[src], o.stamp[src] = 0, o.epoch
	o.heap.push(heapItem{0, int32(src)})
	for len(o.heap) > 0 {
		it := o.heap.pop()
		if o.done[it.v] == o.epoch {
			continue
		}
		o.done[it.v] = o.epoch
		if !visit(it.v, it.d) {
			return
		}
		for e := o.first[it.v]; e < o.first[it.v+1]; e++ {
			t, nd := o.target[e], it.d+o.weight[e]
			if o.stamp[t] != o.epoch || nd < o.dist[t] {
				o.dist[t], o.stamp[t] = nd, o.epoch
				o.heap.push(heapItem{nd, t})
			}
		}
	}
}

// settled is the distance of v if the last explore reached it.
func (o *oracle) settled(v int32) (float64, bool) {
	if o.done[v] != o.epoch {
		return math.Inf(1), false
	}
	return o.dist[v], true
}

// tol is the slack allowed between a served distance and Dijkstra's: the two
// sum the same edge weights in different orders.
func tol(d float64) float64 { return 1e-9 * (1 + math.Abs(d)) }

// objects is the object table a read is checked against: the vertex of
// every object id (-1 for ids that do not exist) and, per vertex, how many
// objects sit on it.
type objects struct {
	vertexOf []int32
	onVertex []int32
	n        int
}

func newObjects(vertexOf []int32, vertices int) *objects {
	objs := &objects{vertexOf: vertexOf, onVertex: make([]int32, vertices)}
	for _, v := range vertexOf {
		if v >= 0 {
			objs.onVertex[v]++
			objs.n++
		}
	}
	return objs
}

// apply advances the live table that owns vertexOf by one acknowledged
// mutation and keeps the per-vertex counts in step. id is the object the
// mutation addressed or created.
func (objs *objects) apply(t *liveTable, o op, id int32) {
	if o.kind != opInsert {
		objs.onVertex[t.vertexOf[id]]--
		objs.n--
	}
	if o.kind != opDelete {
		objs.onVertex[o.b]++
		objs.n++
	}
	t.apply(o, id)
	objs.vertexOf = t.vertexOf // an insert may have moved it
}

// kthDistance explores from q until k objects are settled and returns the
// k-th's distance (the last object's, when there are fewer than k), having
// also settled everything within rounding of it and every vertex in also.
func (o *oracle) kthDistance(objs *objects, q uint32, k int, also []neighbor) float64 {
	want := min(k, objs.n)
	seen, dk := 0, math.Inf(1)
	o.explore(q, func(v int32, d float64) bool {
		if seen >= want && d > dk+tol(dk) && o.allSettled(also) {
			return false
		}
		if seen < want {
			if seen += int(objs.onVertex[v]); seen >= want {
				dk = d
			}
		}
		return true
	})
	return dk
}

// allSettled reports whether the running explore has settled every
// neighbor's vertex.
func (o *oracle) allSettled(ns []neighbor) bool {
	for _, n := range ns {
		if o.done[n.Vertex] != o.epoch {
			return false
		}
	}
	return true
}

// checkIDs validates a neighbor list against the object table alone: ids
// exist, sit on the vertex the reply names, and appear once. It runs before
// the explore, which then may index its arrays by those vertices.
func checkIDs(objs *objects, ns []neighbor) error {
	seen := make(map[int32]bool, len(ns))
	for _, n := range ns {
		if n.ID < 0 || int(n.ID) >= len(objs.vertexOf) || objs.vertexOf[n.ID] < 0 {
			return fmt.Errorf("neighbor id %d is not in the object table", n.ID)
		}
		if v := objs.vertexOf[n.ID]; v != n.Vertex {
			return fmt.Errorf("neighbor id %d reported on vertex %d, table says %d", n.ID, n.Vertex, v)
		}
		if seen[n.ID] {
			return fmt.Errorf("neighbor id %d reported twice", n.ID)
		}
		seen[n.ID] = true
	}
	return nil
}

// checkReported validates the distance a reply gives for a neighbor whose
// true distance is d. An exact distance must match; any other is the lower
// end of the server's interval and may not exceed d.
func checkReported(n neighbor, d float64) error {
	switch {
	case n.Exact && math.Abs(n.Dist-d) > tol(d):
		return fmt.Errorf("neighbor id %d: exact distance %v, Dijkstra says %v", n.ID, n.Dist, d)
	case n.Dist > d+tol(d):
		return fmt.Errorf("neighbor id %d: distance at least %v, Dijkstra says %v", n.ID, n.Dist, d)
	}
	return nil
}

// rankError is the one way a well-formed kNN reply is excused for being
// wrong: k real, distinct objects, each at its true distance and in order,
// all but one of them among the k nearest — and that one stands where a
// closer object should. See README.md, "Known defect".
type rankError struct {
	msg string
	n   int // how many kNN results of the reply it excuses
}

func (e *rankError) Error() string { return e.msg }

// checkKNN accepts any correct k-nearest set: ties at the k-th distance may
// be broken either way.
func (o *oracle) checkKNN(objs *objects, q uint32, k int, r *reply) error {
	if want := min(k, objs.n); len(r.Neighbors) != want {
		return fmt.Errorf("kNN of %d: %d neighbors, want %d", q, len(r.Neighbors), want)
	}
	if err := checkIDs(objs, r.Neighbors); err != nil {
		return err
	}
	dk := o.kthDistance(objs, q, k, r.Neighbors)
	prev := 0.0
	var beyond []neighbor
	for i, nb := range r.Neighbors {
		d, ok := o.settled(nb.Vertex)
		if !ok {
			return fmt.Errorf("kNN of %d: neighbor id %d on vertex %d cannot be reached", q, nb.ID, nb.Vertex)
		}
		if err := checkReported(nb, d); err != nil {
			return err
		}
		if r.Sorted && d < prev-tol(prev) {
			return fmt.Errorf("kNN of %d: rank %d (distance %v) is closer than rank %d (%v)", q, i+1, d, i, prev)
		}
		prev = d
		if d > dk+tol(dk) {
			beyond = append(beyond, nb)
		}
	}
	switch len(beyond) {
	case 0:
		return nil
	case 1:
		d, _ := o.settled(beyond[0].Vertex)
		return &rankError{fmt.Sprintf("kNN of %d: neighbor id %d at distance %v is beyond the k-th distance %v", q, beyond[0].ID, d, dk), 1}
	}
	return fmt.Errorf("kNN of %d: %d of %d neighbors are beyond the k-th distance %v", q, len(beyond), len(r.Neighbors), dk)
}

// checkRange accepts exactly the objects within radius, give or take the
// ones within rounding of the boundary. The reply's neighbors are each
// checked to be real, distinct and inside; then counting suffices to show
// that none is missing.
func (o *oracle) checkRange(objs *objects, q uint32, radius float64, r *reply) error {
	if err := checkIDs(objs, r.Neighbors); err != nil {
		return err
	}
	inside := 0 // objects clearly inside
	o.explore(q, func(v int32, d float64) bool {
		if d > radius+tol(radius) {
			return false
		}
		if d < radius-tol(radius) {
			inside += int(objs.onVertex[v])
		}
		return true
	})
	got := 0
	for _, nb := range r.Neighbors {
		// The explore stopped at the first vertex beyond the radius.
		d, ok := o.settled(nb.Vertex)
		if !ok || d > radius+tol(radius) {
			return fmt.Errorf("range of %d: id %d on vertex %d is outside radius %v", q, nb.ID, nb.Vertex, radius)
		}
		if err := checkReported(nb, d); err != nil {
			return err
		}
		if d < radius-tol(radius) {
			got++
		}
	}
	if got != inside {
		return fmt.Errorf("range of %d: %d objects inside radius %v, reply has %d of them", q, inside, radius, got)
	}
	return nil
}

func (o *oracle) checkDistance(src, dst uint32, r *reply) error {
	o.explore(src, func(v int32, _ float64) bool { return uint32(v) != dst })
	want, _ := o.settled(int32(dst))
	if !r.Reachable || math.Abs(r.Distance-want) > tol(want) {
		return fmt.Errorf("distance %d→%d: got %v (reachable %v), Dijkstra says %v", src, dst, r.Distance, r.Reachable, want)
	}
	return nil
}

// checkPath walks the reply's path over the network's own edges.
func (o *oracle) checkPath(src, dst uint32, r *reply) error {
	if err := o.checkDistance(src, dst, r); err != nil {
		return err
	}
	p := r.Path
	if len(p) == 0 || uint32(p[0]) != src || uint32(p[len(p)-1]) != dst {
		return fmt.Errorf("path %d→%d: does not join its endpoints", src, dst)
	}
	total := 0.0
	for i := 0; i+1 < len(p); i++ {
		w, ok := o.g.EdgeWeight(graph.VertexID(p[i]), graph.VertexID(p[i+1]))
		if !ok {
			return fmt.Errorf("path %d→%d: no edge %d→%d", src, dst, p[i], p[i+1])
		}
		total += w
	}
	if math.Abs(total-r.Distance) > tol(total) {
		return fmt.Errorf("path %d→%d: edges sum to %v, reply says %v", src, dst, total, r.Distance)
	}
	return nil
}

// check validates the reply to one read op.
func (o *oracle) check(objs *objects, op op, radius float64, r *reply) error {
	switch op.kind {
	case opKNN:
		return o.checkKNN(objs, op.a, knnK, r)
	case opRange:
		return o.checkRange(objs, op.a, radius, r)
	case opDistance:
		return o.checkDistance(op.a, op.b, r)
	case opPath:
		return o.checkPath(op.a, op.b, r)
	case opBatch:
		if len(r.Results) != len(op.batch) {
			return fmt.Errorf("batch: %d results for %d queries", len(r.Results), len(op.batch))
		}
		// Every result is checked; rank errors (see rankError) are reported
		// only if nothing worse turns up.
		var rank *rankError
		for i := range r.Results {
			err := o.checkKNN(objs, op.batch[i], knnK, &r.Results[i])
			var re *rankError
			switch {
			case errors.As(err, &re) && rank == nil:
				rank = &rankError{fmt.Sprintf("batch[%d]: %s", i, re.msg), 1}
			case re != nil:
				rank.n++
			case err != nil:
				return fmt.Errorf("batch[%d]: %w", i, err)
			}
		}
		if rank != nil {
			return rank
		}
		return nil
	}
	return fmt.Errorf("no check for %v", op.kind)
}

// medianKthDistance is the range radius: the median, over a sample of query
// vertices, of the distance to the k-th nearest object.
func (o *oracle) medianKthDistance(objs *objects, queries []uint32, k int) float64 {
	ds := make([]float64, len(queries))
	for i, q := range queries {
		ds[i] = o.kthDistance(objs, q, k, nil)
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}
