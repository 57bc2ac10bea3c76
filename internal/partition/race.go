package partition

import (
	"math"

	"silc/internal/core"
	"silc/internal/graph"
)

// route is one way into a race's destination: an exact offset off to the
// cell vertex u, then the cell's own path from u to the destination, known
// as the interval iv.
type route struct {
	off float64
	u   graph.VertexID
	lo0 float64       // off + the zero-refinement lower bound: the tie key
	iv  core.Interval // the cell's current interval u→dst
	r   *core.Refiner // nil until the route is first stepped, unless added with one
	arg int           // position in the caller's candidate list
}

func (rt *route) lo() float64 { return rt.off + rt.iv.Lo }
func (rt *route) hi() float64 { return rt.off + rt.iv.Hi }

// exact reports whether the route's value is known: its refiner is done, or,
// before it has one, its interval has collapsed or says unreachable.
func (rt *route) exact() bool {
	if rt.r != nil {
		return rt.r.Done()
	}
	return rt.iv.Lo >= rt.iv.Hi || math.IsInf(rt.iv.Lo, 1)
}

// race is the paper's search over a handful of intervals: the distance to
// one destination of one cell is the minimum over its routes, and only a
// route that could still be the minimum is ever refined. RaceCellRoutes runs
// one to the end where the cell's quadtrees are; a routeRefiner holds one
// open for a search to step, or to send to a remote cell whole.
type race struct {
	ix     *core.Index // the destination's cell; nil when it is remote and nothing is stepped here
	qc     *core.QueryContext
	dst    graph.VertexID // cell-local
	routes []route
	iv     core.Interval // [min lo, min hi] over the routes at the last settle
	top    int           // the route holding the race open, -1 when there is none
	done   bool          // top is exact, or there is no route: iv is the race's value
}

// add appends the route at offset off to u whose cell interval is iv; r,
// when non-nil, is the refiner iv came from.
func (rc *race) add(arg int, off float64, u graph.VertexID, iv core.Interval, r *core.Refiner) {
	rc.routes = append(rc.routes, route{off: off, u: u, lo0: off + iv.Lo, iv: iv, r: r, arg: arg})
}

// settle bounds the race by [min lo, min hi], drops every route whose lower
// bound passes the smallest upper bound (its value cannot be the minimum;
// the route defining hi always survives), and picks top, the route with the
// smallest lower bound, ties broken by lo0 and then by position. The race is
// decided once top is exact.
func (rc *race) settle() {
	lo, hi := math.Inf(1), math.Inf(1)
	for i := range rc.routes {
		rt := &rc.routes[i]
		if l := rt.lo(); l < lo {
			lo = l
		}
		if h := rt.hi(); h < hi {
			hi = h
		}
	}
	rc.iv = core.Interval{Lo: lo, Hi: hi}
	kept, top := rc.routes[:0], -1
	for _, rt := range rc.routes {
		if rt.lo() > hi {
			continue
		}
		kept = append(kept, rt)
		if top < 0 || rt.lo() < kept[top].lo() || (rt.lo() == kept[top].lo() && rt.lo0 < kept[top].lo0) {
			top = len(kept) - 1
		}
	}
	rc.routes, rc.top = kept, top
	rc.done = top < 0 || kept[top].exact()
}

// step refines top by one hop, opening its refiner first if it has none. It
// reports false on a storage failure, which is on qc.
func (rc *race) step() bool {
	t := &rc.routes[rc.top]
	if t.r == nil {
		t.r = rc.ix.NewRefinerCtx(rc.qc, t.u, rc.dst)
	}
	ok := t.r.Step() || t.r.Done()
	t.iv = t.r.Interval()
	return ok
}

// RaceCellRoutes resolves min over i of offs[i] + d_cell(us[i], dst) on one
// cell index, returning the minimum and the index achieving it (+Inf and -1
// when every candidate is unreachable, or after a failure, which is on qc).
// Every finite candidate opens one refiner (one lookup) and joins a race,
// which is then stepped until it is decided.
//
// The winner's value is offs[i] plus its fully refined within-cell distance,
// exactly what refining that pair alone to exact gives; a sole zero-offset
// candidate is therefore the pair's exact distance (0 + d == d in IEEE 754).
// Among candidates of equal value the winner is the first in (offs[i] plus
// zero-refinement lower bound, index) order. Candidates at +Inf offset, or
// unreachable inside the cell (a lower bound of +Inf), never win.
func RaceCellRoutes(ix *core.Index, qc *core.QueryContext, dst graph.VertexID, offs []float64, us []graph.VertexID) (float64, int) {
	rc := race{ix: ix, qc: qc, dst: dst, routes: make([]route, 0, len(offs))}
	for i, off := range offs {
		if !(off < math.Inf(1)) {
			continue // +Inf (or NaN): never strictly shorter
		}
		r := ix.NewRefinerCtx(qc, us[i], dst)
		if iv := r.Interval(); !math.IsInf(iv.Lo, 1) {
			rc.add(i, off, us[i], iv, r)
		}
	}
	for rc.settle(); len(rc.routes) > 0 && qc.Err() == nil; rc.settle() {
		if t := &rc.routes[rc.top]; rc.done {
			return t.lo(), t.arg
		}
		if !rc.step() {
			break // storage failure, recorded on qc
		}
	}
	return math.Inf(1), -1
}
