package partition

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
)

// cellExact fully refines the within-cell distance from u to v on one cell
// index (+Inf when unreachable inside the cell or beyond its radius).
func cellExact(cx CellIndex, qc *core.QueryContext, u, v graph.VertexID) float64 {
	r := cx.Refine(qc, u, v)
	for !r.Done() && qc.Err() == nil && r.Step() {
	}
	if r.OutOfRange() {
		return math.Inf(1)
	}
	return r.Interval().Lo
}

// raceOracle is the route race before it was progressive, kept as the
// oracle: candidates sort by their zero-refinement lower bound (ties in index
// order) and are refined to exact one after another, until no remaining
// candidate can be strictly shorter.
func raceOracle(cx CellIndex, qc *core.QueryContext, dst graph.VertexID, offs []float64, us []graph.VertexID) (float64, int) {
	type cand struct {
		i  int
		lo float64
	}
	var cands []cand
	for i := range offs {
		if math.IsInf(offs[i], 1) {
			continue
		}
		iv := cx.DistanceIntervalCtx(qc, us[i], dst)
		if math.IsInf(iv.Lo, 1) {
			continue
		}
		cands = append(cands, cand{i: i, lo: offs[i] + iv.Lo})
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].lo < cands[b].lo })
	best, arg := math.Inf(1), -1
	for _, c := range cands {
		if c.lo >= best || qc.Err() != nil {
			break
		}
		if t := offs[c.i] + cellExact(cx, qc, us[c.i], dst); t < best {
			best, arg = t, c.i
		}
	}
	return best, arg
}

// TestRaceOfOneIsCellExact: a race with one zero-offset candidate IS the
// pair's exact within-cell distance — RaceCellRoutes(cx, qc, v, {0}, {u}) and
// refining (u, v) alone to exact agree bit for bit, and the race names
// candidate 0 exactly when the distance is finite. That identity is why the
// wire has no exact endpoint. Checked over every ordered pair of every cell,
// on three kinds of pair: reachable; unreachable inside a lenient cell (the
// splitcell fixture's a street from its b street); and beyond the radius of
// a proximity-bounded index, whose zero-refinement interval [radius, +Inf)
// is finite below.
func TestRaceOfOneIsCellExact(t *testing.T) {
	reachable, unreachable, beyond := 0, 0, 0
	check := func(name string, cx CellIndex, nv int, count *int) {
		t.Helper()
		qc := core.NewQueryContext()
		for u := 0; u < nv; u++ {
			for v := 0; v < nv; v++ {
				u, v := graph.VertexID(u), graph.VertexID(v)
				want := cellExact(cx, qc, u, v)
				got, arg := RaceCellRoutes(cx, qc, v, []float64{0}, []graph.VertexID{u})
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s (%d,%d): race of one %v (%x), exact %v (%x)", name, u, v,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
				wantArg := 0
				if math.IsInf(want, 1) {
					wantArg = -1
					*count++
				} else {
					reachable++
				}
				if arg != wantArg {
					t.Fatalf("%s (%d,%d): distance %v, winner %d", name, u, v, want, arg)
				}
			}
		}
	}
	nets := testNetworks(t)
	nets["splitcell"] = splitCellNetwork(t)
	for name, g := range nets {
		s, err := Build(g, Options{Partitions: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for c := range s.cells {
			check(name, s.qcell(int32(c)), s.CellVertexCount(c), &unreachable)
		}
	}
	g := nets["road14x14b"]
	ix, err := core.Build(g, core.BuildOptions{ProximityRadius: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	check("proximity-bounded", &localCell{Index: ix}, g.NumVertices(), &beyond)
	if reachable == 0 || unreachable == 0 || beyond == 0 {
		t.Fatalf("pairs: %d reachable, %d unreachable in a lenient cell, %d beyond the radius; need all three kinds",
			reachable, unreachable, beyond)
	}
}

// raceCase is one route race on one cell index.
type raceCase struct {
	cx   CellIndex
	dst  graph.VertexID
	offs []float64
	us   []graph.VertexID
}

// randomRace draws a race on a cell of nv vertices: 1–40 candidates at
// offsets 0, +Inf or uniform below scale, some repeating an earlier
// candidate's vertex (now and then at its offset too, an exact tie), some
// starting at the destination itself.
func randomRace(rng *rand.Rand, cx CellIndex, nv int, scale float64) raceCase {
	rc := raceCase{cx: cx, dst: graph.VertexID(rng.Intn(nv))}
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		off := rng.Float64() * scale
		switch rng.Intn(10) {
		case 0:
			off = 0
		case 1:
			off = math.Inf(1)
		}
		u := graph.VertexID(rng.Intn(nv))
		switch rng.Intn(8) {
		case 0:
			u = rc.dst
		case 1:
			if i > 0 {
				j := rng.Intn(i)
				u = rc.us[j]
				if rng.Intn(2) == 0 {
					off = rc.offs[j]
				}
			}
		}
		rc.offs, rc.us = append(rc.offs, off), append(rc.us, u)
	}
	return rc
}

// gatewayRace is the race Sharded.PathCtx runs for (src, dst): every entry
// gateway of dst's cell at the source's exact distance to it, behind the
// direct route when both ends share a cell.
func gatewayRace(s *Sharded, qc *core.QueryContext, src, dst graph.VertexID) raceCase {
	p, q := s.asn.CellOf[src], s.asn.CellOf[dst]
	rc := raceCase{cx: s.qcell(q), dst: graph.VertexID(s.asn.LocalOf[dst])}
	if p == q {
		rc.offs, rc.us = append(rc.offs, 0), append(rc.us, graph.VertexID(s.asn.LocalOf[src]))
	}
	a, _ := s.routerFor(qc, src).gateways(q)
	rc.offs = append(rc.offs, a...)
	rc.us = append(rc.us, s.BoundaryLocals(int(q))...)
	return rc
}

// raceTally sums what a set of races cost and found.
type raceTally struct {
	races, steps, oracleSteps, won, unreachable int64
}

// checkRaces runs every race progressively and through the oracle, each on a
// fresh context, and fails on the first value or winner that differs.
func checkRaces(t *testing.T, name string, races []raceCase) raceTally {
	t.Helper()
	var tally raceTally
	for k, rc := range races {
		qc, oqc := core.NewQueryContext(), core.NewQueryContext()
		got, arg := RaceCellRoutes(rc.cx, qc, rc.dst, rc.offs, rc.us)
		want, warg := raceOracle(rc.cx, oqc, rc.dst, rc.offs, rc.us)
		if qc.Err() != nil || oqc.Err() != nil {
			t.Fatalf("%s race %d: %v / %v", name, k, qc.Err(), oqc.Err())
		}
		if math.Float64bits(got) != math.Float64bits(want) || arg != warg {
			t.Fatalf("%s race %d (dst %d, offs %v, us %v): %v by %d, oracle %v by %d",
				name, k, rc.dst, rc.offs, rc.us, got, arg, want, warg)
		}
		tally.races++
		tally.steps += qc.Span.Refinements
		tally.oracleSteps += oqc.Span.Refinements
		if arg >= 0 {
			tally.won++
		}
		for i, u := range rc.us {
			if !math.IsInf(rc.offs[i], 1) && math.IsInf(cellExact(rc.cx, core.NewQueryContext(), u, rc.dst), 1) {
				tally.unreachable++
			}
		}
	}
	return tally
}

// pagedCells reopens s's image demand-paged behind a 5% pool.
func pagedCells(t testing.TB, g *graph.Network, p int) *Sharded {
	t.Helper()
	s, err := Build(g, Options{Partitions: p})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := s.WritePaged(&img); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPaged(bytes.NewReader(img.Bytes()), int64(img.Len()), Options{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return paged
}

// TestRaceCellRoutesMatchesOracle: the progressive race answers every race
// with the oracle's value, bit for bit, and the oracle's winner, in no more
// refinement steps. The races are random candidate sets and the gateway
// races PathCtx runs, on road, grid (equal weights: many ties) and one-way
// maps, on four kinds of cell index: in-RAM cells (lenient, like every cell
// of a multi-cell build), the same cells paged PG2 behind a 5% pool, a
// proximity-bounded index and the splitcell fixture's lenient cell that
// cannot reach half of itself.
func TestRaceCellRoutesMatchesOracle(t *testing.T) {
	nets := testNetworks(t)
	nets["oneway8x8"] = oneWayNetwork(t)
	nets["splitcell"] = splitCellNetwork(t)
	rng := rand.New(rand.NewSource(26))
	var total raceTally
	add := func(name string, races []raceCase) {
		tl := checkRaces(t, name, races)
		if tl.steps > tl.oracleSteps {
			t.Fatalf("%s: %d refinement steps over %d races, the oracle %d", name, tl.steps, tl.races, tl.oracleSteps)
		}
		t.Logf("%-22s %4d races (%d won): %6d steps, oracle %6d", name, tl.races, tl.won, tl.steps, tl.oracleSteps)
		total.races, total.won, total.unreachable = total.races+tl.races, total.won+tl.won, total.unreachable+tl.unreachable
		total.steps, total.oracleSteps = total.steps+tl.steps, total.oracleSteps+tl.oracleSteps
	}
	for _, name := range []string{"grid9x11", "road14x14b", "oneway8x8", "splitcell"} {
		g := nets[name]
		p := 4
		if name == "splitcell" {
			p = 2
		}
		for _, kind := range []string{"ram", "paged"} {
			var s *Sharded
			switch {
			case kind == "ram":
				var err error
				if s, err = Build(g, Options{Partitions: p}); err != nil {
					t.Fatal(err)
				}
			case name == "splitcell":
				continue
			default:
				s = pagedCells(t, g, p)
			}
			var races []raceCase
			for c := 0; c < p; c++ {
				for i := 0; i < 60; i++ {
					races = append(races, randomRace(rng, s.qcell(int32(c)), s.CellVertexCount(c), 0.1))
				}
			}
			qc, n := core.NewQueryContext(), g.NumVertices()
			for i := 0; i < 60; i++ {
				races = append(races, gatewayRace(s, qc, graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))))
			}
			add(name+"/"+kind, races)
		}
	}
	g := nets["road14x14b"]
	ix, err := core.Build(g, core.BuildOptions{ProximityRadius: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var races []raceCase
	for i := 0; i < 200; i++ {
		races = append(races, randomRace(rng, &localCell{Index: ix}, g.NumVertices(), 0.3))
	}
	add("road14x14b/proximity", races)
	if total.won == 0 || total.won == total.races || total.unreachable == 0 {
		t.Fatalf("%d races, %d won, %d unreachable candidates: the sets miss a case", total.races, total.won, total.unreachable)
	}
	t.Logf("Σ %d races: %d steps, oracle %d", total.races, total.steps, total.oracleSteps)
}

// TestRaceCellRoutesFewerSteps: on a 64×64 road map in four cells — the
// benchmark's map — the races PathCtx runs and random ones agree with the
// oracle and cost strictly fewer refinement steps in sum.
func TestRaceCellRoutesFewerSteps(t *testing.T) {
	g, s := buildTestSharded(t, 64, 64, 4, 1, false)
	rng := rand.New(rand.NewSource(64))
	n := g.NumVertices()
	qc := core.NewQueryContext()
	var gw, random []raceCase
	for i := 0; i < 150; i++ {
		gw = append(gw, gatewayRace(s, qc, graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))))
		c := rng.Intn(4)
		random = append(random, randomRace(rng, s.qcell(int32(c)), s.CellVertexCount(c), 0.1))
	}
	for _, set := range []struct {
		name  string
		races []raceCase
	}{{"gateway", gw}, {"random", random}} {
		tl := checkRaces(t, set.name, set.races)
		if tl.steps >= tl.oracleSteps {
			t.Fatalf("%s races on 64×64: %d refinement steps, the oracle %d", set.name, tl.steps, tl.oracleSteps)
		}
		t.Logf("%s: %d races, %.1f steps per race, oracle %.1f", set.name, tl.races,
			float64(tl.steps)/float64(tl.races), float64(tl.oracleSteps)/float64(tl.races))
	}
}

// BenchmarkRaceCellRoutes times the races PathCtx runs on a 64×64 road map
// in four cells, paged PG2 behind a 5% pool, progressive and through the
// oracle, and reports refinement steps per race.
func BenchmarkRaceCellRoutes(b *testing.B) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := pagedCells(b, g, 4)
	rng := rand.New(rand.NewSource(64))
	n := g.NumVertices()
	races := make([]raceCase, 256)
	for i := range races {
		races[i] = gatewayRace(s, core.NewQueryContext(), graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	for _, impl := range []struct {
		name string
		race func(CellIndex, *core.QueryContext, graph.VertexID, []float64, []graph.VertexID) (float64, int)
	}{{"progressive", RaceCellRoutes}, {"oracle", raceOracle}} {
		b.Run(impl.name, func(b *testing.B) {
			qc := core.NewQueryContext()
			var steps, n int64
			for b.Loop() {
				rc := &races[n%int64(len(races))]
				qc.ResetForReuse(nil)
				impl.race(rc.cx, qc, rc.dst, rc.offs, rc.us)
				steps += qc.Span.Refinements
				n++
			}
			b.ReportMetric(float64(steps)/float64(n), "steps/op")
		})
	}
}
