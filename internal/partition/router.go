package partition

import (
	"math"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/sssp"
)

// router is the per-query routing state for one source vertex: the source
// label du — the exact within-cell distances from the source to its own
// cell's boundary — and, lazily per destination cell, the "gateway closure"
// A, the exact global distance from the source to every boundary vertex of
// that cell (A[b] = min over own-cell gateways b1 of du[b1] + D(b1, b)). One
// router is built per (QueryContext, source) and cached on the context, so a
// kNN query amortizes the boundary work across every object it inspects.
// Routers are owned by one goroutine, like the context that carries them.
type router struct {
	s   *Sharded
	src graph.VertexID
	p   int32 // cell of src

	duReady bool
	du      []float64 // exact d_p(src, b) per own-cell boundary row (offset from row lo)
	// sr is ensureDU's search, kept across sources, so a warm router's
	// search allocates nothing.
	sr sssp.Search

	gw    [][]float64 // per cell: A values per row offset; nil until computed
	gwArg [][]int32   // per cell: argmin own-cell row (global row id) behind each A value
	minA  []float64   // per cell: min over gw
	// epoch stamps each cell's gw/gwArg/minA entry with the rebind epoch it
	// was computed under; cur advances on every source change, invalidating
	// all cached closures at once without an O(P) clear.
	epoch []uint32
	cur   uint32

	// rrSlab recycles routeRefiners: handed out in order per query, reset en
	// masse when the context's reuse generation moves past qcGen (i.e. at the
	// first router use of a new query, when no refiner of the previous query
	// can still be live).
	rrSlab []*routeRefiner
	rrUsed int
	qcGen  uint64

	// hints holds what HintExpand fetched from the source's own cell and which
	// refiners HintRefine may race ahead of their Step (remote cells only;
	// always empty in process).
	hints expandHints
	// race is the scratch every route race of this router is assembled in,
	// the single race of a Step and the batch of a HintRefine alike.
	race raceBatch
}

// expandHints is what HintExpand has fetched from the source's own cell for
// the current (query, source): the zero-refinement interval source→d for
// every announced destination d of that cell, and the region lower bound of
// every announced quadtree cell. Either may wait several expansions for its
// lookup: a search announces two levels of its object tree at a time. The
// per-call paths look here first and fall back to the cell index on a miss.
// The values are what the cell index would have returned, bit for bit, so a
// hit changes the number of calls and nothing else. Hints die with their
// source (rebind) and their query (context generation).
type expandHints struct {
	ivs map[graph.VertexID]core.Interval // by cell-local destination
	lbs map[geom.Cell]float64
	// ask and cells are the request scratch: what an announcement names that
	// ivs and lbs do not hold yet.
	ask   []graph.VertexID
	cells []geom.Cell
	// live maps a destination (global id) to the refiner Refine last handed
	// out for it: the routes HintRefine races for that destination, and where
	// it parks the result.
	live map[graph.VertexID]*routeRefiner
}

func (h *expandHints) reset() {
	clear(h.ivs)
	clear(h.lbs)
	clear(h.live)
}

// WantsExpandHints implements core.ExpandHinter: only a router over remote
// cells has anything to gain from a batch; in process every lookup is already
// a direct call.
func (s *Sharded) WantsExpandHints() bool { return s.remote != nil }

// HintExpand implements core.ExpandHinter. Of everything the expansion is
// about to ask, the part that costs a remote call each is what the source's
// own cell answers from the source's quadtree: the within-cell interval to
// every destination in that cell, and the region bound for every quadtree
// cell holding one of its vertices. What this query has not fetched yet goes
// out as one SourceBatch call; the rest (other cells' gateway intervals and
// closure bounds) is source-independent or router-local and is not touched
// here.
func (s *Sharded) HintExpand(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID, cells []geom.Cell) {
	if s.remote == nil || qc == nil {
		return
	}
	p := s.asn.CellOf[src]
	h := &s.routerFor(qc, src).hints
	h.ask, h.cells = h.ask[:0], h.cells[:0]
	for _, d := range dsts {
		if s.asn.CellOf[d] != p {
			continue
		}
		dl := graph.VertexID(s.asn.LocalOf[d])
		if _, known := h.ivs[dl]; !known {
			h.ask = append(h.ask, dl)
		}
	}
	for _, cell := range cells {
		if _, known := h.lbs[cell]; !known && s.holds(p, cell) {
			h.cells = append(h.cells, cell)
		}
	}
	if len(h.ask)+len(h.cells) == 0 {
		return
	}
	// A failed batch has failed the query (qc.Fail) and answers with loose
	// stand-ins; keeping them means the doomed search asks nothing again.
	ivs, lbs := s.remote[p].SourceBatch(qc, graph.VertexID(s.asn.LocalOf[src]), h.ask, h.cells)
	if h.ivs == nil {
		h.ivs, h.lbs = make(map[graph.VertexID]core.Interval), make(map[geom.Cell]float64)
	}
	for i, dl := range h.ask {
		h.ivs[dl] = ivs[i]
	}
	for i, cell := range h.cells {
		h.lbs[cell] = lbs[i]
	}
}

// ownInterval returns the zero-refinement interval from the source to dst
// within the source's own remote cell: the hinted one when a HintExpand of
// this query covered dst, else one interval call.
func (rt *router) ownInterval(qc *core.QueryContext, dstLocal graph.VertexID) core.Interval {
	if iv, ok := rt.hints.ivs[dstLocal]; ok {
		return iv
	}
	return rt.s.remote[rt.p].DistanceIntervalCtx(qc, graph.VertexID(rt.s.asn.LocalOf[rt.src]), dstLocal)
}

// routerFor returns the context's cached router for src, building one on
// first use. A cached router is rebound in place on a source change —
// keeping the du buffer and every per-cell closure slice — and recycles its
// route-refiner slab whenever the context has been reset since its last
// use. A nil context gets a fresh uncached router.
func (s *Sharded) routerFor(qc *core.QueryContext, src graph.VertexID) *router {
	if qc != nil {
		if rt, ok := qc.Route.(*router); ok && rt.s == s {
			if g := qc.Gen(); g != rt.qcGen {
				rt.qcGen = g
				rt.recycleRefiners()
				rt.hints.reset()
			}
			if rt.src != src {
				rt.rebind(src)
			}
			return rt
		}
	}
	rt := &router{
		s:     s,
		src:   src,
		p:     s.asn.CellOf[src],
		gw:    make([][]float64, s.asn.P),
		gwArg: make([][]int32, s.asn.P),
		minA:  make([]float64, s.asn.P),
		epoch: make([]uint32, s.asn.P),
		cur:   1,
	}
	if qc != nil {
		rt.qcGen = qc.Gen()
		qc.Route = rt
	}
	return rt
}

// rebind retargets the router at a new source vertex, invalidating every
// cached closure by advancing the epoch while keeping all allocations.
func (rt *router) rebind(src graph.VertexID) {
	rt.src = src
	rt.p = rt.s.asn.CellOf[src]
	rt.duReady = false
	rt.hints.reset()
	rt.cur++
	if rt.cur == 0 { // wrapped: nothing may read as valid
		clear(rt.epoch)
		rt.cur = 1
	}
}

// recycleRefiners returns every handed-out routeRefiner to the slab,
// dropping the cell-refiner references they pinned but keeping their gates
// capacity.
func (rt *router) recycleRefiners() {
	for _, r := range rt.rrSlab[:rt.rrUsed] {
		gates := r.gates[:cap(r.gates)]
		clear(gates)
		*r = routeRefiner{gates: gates[:0]}
	}
	rt.rrUsed = 0
}

// newRR hands out the next slab routeRefiner, growing past the high-water
// mark only.
func (rt *router) newRR() *routeRefiner {
	if rt.rrUsed == len(rt.rrSlab) {
		rt.rrSlab = append(rt.rrSlab, new(routeRefiner))
	}
	r := rt.rrSlab[rt.rrUsed]
	rt.rrUsed++
	return r
}

// ensureDU computes the source label: the exact within-cell distance from
// the source to each of its own cell's gateways (+Inf for a gateway the cell's
// own edges do not reach). This is the one-time per-source cost of cross-cell
// routing, paid as ONE bounded search: a Search from the source over the
// global network kept inside the source's cell — the induced subgraph the
// cell index was built on — and stopped once the cell's last gateway is
// settled. The closure D was computed by the same Search (one per gateway at
// build time), so both halves of A = du + D are sums of edge weights in path
// order, as exact as each other. The search needs the network and the
// partition metadata only, which a router holds in full: it is the same
// function over in-process and remote cells, bit for bit.
func (rt *router) ensureDU() {
	if rt.duReady {
		return
	}
	rt.duReady = true
	s := rt.s
	lo, hi := s.cl.Rows(rt.p)
	if cap(rt.du) < int(hi-lo) {
		rt.du = make([]float64, hi-lo)
	}
	rt.du = rt.du[:hi-lo]
	for i := range rt.du {
		rt.du[i] = math.Inf(1)
	}
	rt.sr.StartWithin(s.g, rt.src, s.asn.CellOf)
	for left := hi - lo; left > 0; {
		v, d, ok := rt.sr.Next(sssp.Inf)
		if !ok {
			break
		}
		if r := s.cl.RowOf[v]; r >= 0 {
			rt.du[r-lo] = d
			left--
		}
	}
}

// gateways returns A (and the argmin own-cell gateway behind each entry) for
// destination cell c, computing and caching it on first use: an
// O(|B_p|·|B_c|) scan over the closure.
func (rt *router) gateways(c int32) ([]float64, []int32) {
	if rt.gw[c] != nil && rt.epoch[c] == rt.cur {
		return rt.gw[c], rt.gwArg[c]
	}
	rt.ensureDU()
	s := rt.s
	plo, phi := s.cl.Rows(rt.p)
	clo, chi := s.cl.Rows(c)
	nb := s.cl.NB()
	// A cell's boundary-row count never changes, so a stale-epoch slice is
	// exactly the right size to overwrite.
	a, arg := rt.gw[c], rt.gwArg[c]
	if a == nil {
		a = make([]float64, chi-clo)
		arg = make([]int32, chi-clo)
	}
	for j := range a {
		a[j] = math.Inf(1)
		arg[j] = -1
	}
	for i := plo; i < phi; i++ {
		d := rt.du[i-plo]
		if math.IsInf(d, 1) {
			continue
		}
		row := s.cl.D[int(i)*nb : (int(i)+1)*nb]
		for j := clo; j < chi; j++ {
			if v := d + row[j]; v < a[j-clo] {
				a[j-clo] = v
				arg[j-clo] = i
			}
		}
	}
	m := math.Inf(1)
	for _, v := range a {
		if v < m {
			m = v
		}
	}
	rt.gw[c] = a
	rt.gwArg[c] = arg
	rt.minA[c] = m
	rt.epoch[c] = rt.cur
	return a, arg
}

// minInto returns a lower bound on the global distance from the source to
// any vertex of cell c routed through c's boundary.
func (rt *router) minInto(c int32) float64 {
	if rt.gw[c] == nil || rt.epoch[c] != rt.cur {
		rt.gateways(c)
	}
	return rt.minA[c]
}

// Refine implements core.QueryIndex: progressive refinement of the global
// network distance (src, dst). Intra-cell pairs in self-contained in-process
// cells delegate straight to the cell index — a single quadtree lookup,
// exactly the monolithic cost. Everything else races candidate routes: the
// direct within-cell route (same cell only) against one gateway route per
// boundary vertex of dst's cell, each bounded by the exact gateway closure
// plus the cell index's interval, refined where the aggregate interval
// demands. Over remote cells the self-contained pair is the same race with
// the direct route as its only candidate, so every refiner a router hands
// out is one HintRefine can batch.
func (s *Sharded) Refine(qc *core.QueryContext, src, dst graph.VertexID) core.DistanceRefiner {
	if p := s.asn.CellOf[src]; s.remote == nil && p == s.asn.CellOf[dst] && s.selfContained[p] {
		return s.cells[p].ix.Refine(qc, graph.VertexID(s.asn.LocalOf[src]), graph.VertexID(s.asn.LocalOf[dst]))
	}
	return s.newRouteRefiner(qc, src, dst)
}

// gate is one candidate route into the destination cell: the exact distance
// a to a boundary vertex of that cell plus the cell index's evolving
// interval for boundary→destination.
type gate struct {
	a      float64
	bLocal graph.VertexID
	civ    core.Interval
	r      core.DistanceRefiner // nil until first stepped
	exact  bool
}

func (g *gate) lo() float64 { return g.a + g.civ.Lo }
func (g *gate) hi() float64 { return g.a + g.civ.Hi }

// routeRefiner races the candidate routes for one (src, dst) pair. Its
// interval is [min over routes of route.lo, min over routes of route.hi] —
// both valid because the true distance is the min over routes of each
// route's exact value.
type routeRefiner struct {
	rt       *router
	qc       *core.QueryContext
	q        int32 // destination cell
	dstLocal graph.VertexID

	// A same-cell pair also races the direct within-cell route. In process
	// that route has a refiner of its own to step; over remote cells it is
	// only ever raced, from srcLocal, and its zero-refinement interval is all
	// the refiner holds.
	hasDirect   bool
	srcLocal    graph.VertexID
	direct      core.DistanceRefiner
	directIv    core.Interval
	directExact bool

	gates []gate
	iv    core.Interval
	done  bool

	// parked is the exact distance a HintRefine batch raced ahead of this
	// refiner's Step, which adopts it instead of racing again. Until then it
	// shows in nothing the refiner reports.
	parked   float64
	isParked bool
}

func (s *Sharded) newRouteRefiner(qc *core.QueryContext, src, dst graph.VertexID) *routeRefiner {
	rt := s.routerFor(qc, src)
	r := rt.newRR()
	r.rt, r.qc, r.q = rt, qc, s.asn.CellOf[dst]
	if src == dst {
		r.done = true
		return r
	}
	r.dstLocal = graph.VertexID(s.asn.LocalOf[dst])
	r.gates = r.gates[:0]
	if rt.p == r.q {
		r.hasDirect = true
		r.srcLocal = graph.VertexID(s.asn.LocalOf[src])
		if s.remote != nil {
			r.directIv = rt.ownInterval(qc, r.dstLocal)
			r.directExact = r.directIv.Lo >= r.directIv.Hi || math.IsInf(r.directIv.Lo, 1)
		} else {
			r.direct = s.qcell(r.q).Refine(qc, r.srcLocal, r.dstLocal)
			r.directIv = r.direct.Interval()
			r.directExact = r.direct.Done()
		}
	}
	if !(r.hasDirect && s.selfContained[r.q]) {
		a, _ := rt.gateways(r.q)
		lo, _ := s.cl.Rows(r.q)
		civs := s.labelRow(qc, r.q, r.dstLocal, true) // every gate's gateway→dst interval
		for j, av := range a {
			if math.IsInf(av, 1) {
				continue
			}
			civ := civs[j]
			g := gate{a: av, bLocal: graph.VertexID(s.asn.LocalOf[s.cl.B[lo+int32(j)]]), civ: civ}
			g.exact = civ.Lo >= civ.Hi || math.IsInf(civ.Lo, 1)
			r.gates = append(r.gates, g)
		}
		if qc != nil {
			qc.Span.CrossCell++
			qc.Span.GatewayRoutes += int64(len(r.gates))
		}
	}
	r.recompute()
	if s.remote != nil && qc != nil {
		h := &rt.hints
		if h.live == nil {
			h.live = make(map[graph.VertexID]*routeRefiner)
		}
		// A batch may have raced this pair for an earlier refiner that never
		// stepped (a search's, when the engine refines its results to exact
		// afterwards): the value moves to the refiner that will.
		if prev := h.live[dst]; prev != nil && prev.isParked && !prev.done {
			r.parked, r.isParked, prev.isParked = prev.parked, true, false
		}
		h.live[dst] = r
	}
	return r
}

// recompute refreshes the aggregate interval, prunes gates that can no
// longer define the minimum, and decides completion (every surviving route
// exact ⇒ the aggregate has collapsed to the true distance).
func (r *routeRefiner) recompute() {
	lo, hi := math.Inf(1), math.Inf(1)
	if r.hasDirect {
		lo, hi = r.directIv.Lo, r.directIv.Hi
	}
	for i := range r.gates {
		g := &r.gates[i]
		if g.lo() < lo {
			lo = g.lo()
		}
		if g.hi() < hi {
			hi = g.hi()
		}
	}
	r.iv = core.Interval{Lo: lo, Hi: hi}
	kept := r.gates[:0]
	allExact := !r.hasDirect || r.directExact || r.directIv.Lo > hi
	for i := range r.gates {
		g := r.gates[i]
		if g.lo() > hi {
			continue // cannot be the minimum: its value is at least lo > hi ≥ true distance
		}
		if !g.exact {
			allExact = false
		}
		kept = append(kept, g)
	}
	r.gates = kept
	r.done = allExact
}

func (r *routeRefiner) Interval() core.Interval { return r.iv }
func (r *routeRefiner) Done() bool              { return r.done }

// Step refines the route currently defining the aggregate lower bound by
// one hop and returns false once the aggregate is exact.
func (r *routeRefiner) Step() bool {
	if r.done {
		return false
	}
	s := r.rt.s
	// Over remote cells a refinement step is a round trip, so the whole race
	// collapses now, in one RaceRoutes call; in process it is stepped hop by
	// hop, and a search stops refining as soon as the interval has separated.
	if s.remote != nil {
		return r.stepRace()
	}
	// Pick the non-exact route with the smallest lower bound — the route
	// holding the aggregate open.
	bestLo := math.Inf(1)
	bestGate := -1
	stepDirect := false
	if r.hasDirect && !r.directExact && !(r.directIv.Lo > r.iv.Hi) {
		bestLo = r.directIv.Lo
		stepDirect = true
	}
	for i := range r.gates {
		g := &r.gates[i]
		if g.exact {
			continue
		}
		if g.lo() < bestLo {
			bestLo = g.lo()
			bestGate = i
			stepDirect = false
		}
	}
	switch {
	case bestGate >= 0:
		g := &r.gates[bestGate]
		if g.r == nil {
			g.r = s.qcell(r.q).Refine(r.qc, g.bLocal, r.dstLocal)
		}
		g.r.Step()
		g.civ = g.r.Interval()
		g.exact = g.r.Done()
	case stepDirect:
		r.direct.Step()
		r.directIv = r.direct.Interval()
		r.directExact = r.direct.Done()
	default:
		// Nothing steppable: every surviving route is exact.
		r.done = true
		return false
	}
	r.recompute()
	return !r.done
}

// raceBatch is a router's reusable scratch for route races on one remote
// cell: destination dsts[i] races the next ns[i] entries of the flat
// candidate lists offs/us, and base[i] is the minimum over the routes of
// rrs[i] that were exact already. A Step's single race uses offs and us
// alone.
type raceBatch struct {
	dsts []graph.VertexID
	ns   []int32
	offs []float64
	us   []graph.VertexID
	rrs  []*routeRefiner
	base []float64
	ds   []float64 // RaceBatch's reply
}

func (b *raceBatch) reset() {
	b.dsts, b.ns, b.offs, b.us, b.rrs, b.base = b.dsts[:0], b.ns[:0], b.offs[:0], b.us[:0], b.rrs[:0], b.base[:0]
}

// candidates appends the routes of r that are still undecided to b as
// (offset, vertex) race candidates on the destination cell — the direct
// route from the source at offset 0, each surviving non-exact gate at its
// closure distance — and returns the minimum over the routes that are exact
// already (+Inf when there is none). The race's result, folded into that
// minimum, equals what progressive stepping converges to: RaceRoutes refines
// candidates in lower-bound order with the same cutoff.
func (r *routeRefiner) candidates(b *raceBatch) float64 {
	best := math.Inf(1)
	if r.hasDirect {
		if r.directExact {
			best = r.directIv.Lo // collapsed, or +Inf when unreachable inside the cell
		} else {
			b.offs = append(b.offs, 0)
			b.us = append(b.us, r.srcLocal)
		}
	}
	for i := range r.gates {
		g := &r.gates[i]
		if g.exact {
			if v := g.lo(); v < best {
				best = v
			}
			continue
		}
		b.offs = append(b.offs, g.a)
		b.us = append(b.us, g.bLocal)
	}
	return best
}

// stepRace resolves the remaining race in one shot: the value a HintRefine
// batch parked for this pair when there is one, else one RaceRoutes call on
// the destination cell over the refiner's own candidates. A query that has
// failed or been cancelled makes no further call; its refiner stays as it is.
func (r *routeRefiner) stepRace() bool {
	best := r.parked
	if r.isParked {
		r.isParked = false
		r.rt.s.raceUsed.Inc()
	} else {
		if r.qc.Err() != nil {
			return false
		}
		b := &r.rt.race
		b.reset()
		best = r.candidates(b)
		if len(b.offs) > 0 {
			if d, _ := r.rt.s.qcell(r.q).RaceRoutes(r.qc, r.dstLocal, b.offs, b.us); d < best {
				best = d
			}
		}
	}
	r.iv = core.Interval{Lo: best, Hi: best}
	r.done = true
	r.gates = r.gates[:0]
	return false
}

// HintRefine implements core.ExpandHinter. Each announced refiner that has
// not stepped yet would cost one race RPC at its Step; the ones that share a
// destination cell go out as one RaceBatch call instead, every destination
// with the very candidates its own Step would race, and the exact distances
// wait on the refiners until those Steps come. A failed batch has failed the
// query (qc.Fail): it is the last call the doomed query makes, and the +Inf
// stand-ins it parks die with the refiners at the next context generation.
func (s *Sharded) HintRefine(qc *core.QueryContext, src graph.VertexID, dsts []graph.VertexID) {
	if s.remote == nil || qc == nil {
		return
	}
	rt := s.routerFor(qc, src)
	b := &rt.race
	for c := int32(0); c < int32(s.asn.P) && qc.Err() == nil; c++ {
		b.reset()
		for _, d := range dsts {
			if s.asn.CellOf[d] != c {
				continue
			}
			r := rt.hints.live[d]
			if r == nil || r.done || r.isParked {
				continue
			}
			r.isParked = true // now, so a destination announced twice races once
			n := len(b.offs)
			b.base = append(b.base, r.candidates(b))
			b.rrs = append(b.rrs, r)
			b.dsts = append(b.dsts, r.dstLocal)
			b.ns = append(b.ns, int32(len(b.offs)-n))
		}
		if len(b.rrs) == 0 {
			continue
		}
		s.raceHinted.Add(int64(len(b.rrs)))
		b.ds = s.remote[c].RaceBatch(qc, b.dsts, b.ns, b.offs, b.us, b.ds[:0])
		for i, r := range b.rrs {
			r.parked = b.base[i]
			if d := b.ds[i]; d < r.parked {
				r.parked = d
			}
		}
	}
}

// RaceHintStats returns how many destinations HintRefine has raced ahead of
// their refiner's Step and how many of those parked results a Step went on to
// adopt. The difference is what the announcements' speculation wasted.
func (s *Sharded) RaceHintStats() (hinted, used int64) {
	return s.raceHinted.Value(), s.raceUsed.Value()
}

// RegionLowerBoundCtx implements core.QueryIndex: a lower bound on the
// global distance from q to any vertex whose Morton code lies in cell. The
// source's own partition contributes its quadtree's cell bound; any other
// partition with a vertex in the cell contributes the distance to its
// nearest gateway.
func (s *Sharded) RegionLowerBoundCtx(qc *core.QueryContext, q graph.VertexID, cell geom.Cell) float64 {
	p := s.asn.CellOf[q]
	var rt *router
	best := math.Inf(1)
	for c := int32(0); c < int32(s.asn.P); c++ {
		if !s.holds(c, cell) {
			continue
		}
		var m float64
		if c == p {
			ql := graph.VertexID(s.asn.LocalOf[q])
			if s.remote == nil {
				m = s.cells[p].ix.RegionLowerBoundCtx(qc, ql, cell)
			} else {
				if rt == nil {
					rt = s.routerFor(qc, q)
				}
				var hinted bool
				if m, hinted = rt.hints.lbs[cell]; !hinted {
					m = s.remote[p].RegionLowerBoundCtx(qc, ql, cell)
				}
			}
			if !s.selfContained[p] {
				if rt == nil {
					rt = s.routerFor(qc, q)
				}
				if re := rt.minInto(p); re < m {
					m = re
				}
			}
		} else {
			if rt == nil {
				rt = s.routerFor(qc, q)
			}
			m = rt.minInto(c)
		}
		if m < best {
			best = m
		}
	}
	return best
}

// holds reports whether partition c has a vertex whose Morton code lies in
// cell: c's vertices are in Morton order, so that is one binary search. Only
// such partitions can hold a vertex a region bound over cell must bound. The
// one cell of a one-cell index, in its caller's vertex order, holds them all.
func (s *Sharded) holds(c int32, cell geom.Cell) bool {
	if s.asn.P == 1 {
		return true
	}
	vs := s.asn.Verts[c]
	lo, hi := 0, len(vs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.g.Code(vs[mid]) < cell.Code {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(vs) && s.g.Code(vs[lo]) < cell.End()
}
