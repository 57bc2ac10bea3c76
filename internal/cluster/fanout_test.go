package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/partition"
)

// The fan-out contract: the batched interval RPC, the partition layer's label
// table and its source-label search bound how many calls a query makes (the
// answers are held to the in-process engine's, bit for bit, by the label
// tests in internal/partition and by TestClusterEquivalence). The fixture is a
// 4-cell paged image served by two nodes over real HTTP and a router over
// RemoteCells.

type fanoutFixture struct {
	g      *graph.Network
	client *Client
	router *partition.Sharded // over the RemoteCells
	local  *partition.Sharded // the same image, cells in process
	nodes  []string           // the nodes' base URLs
	down   []atomic.Bool      // per node: answer every request 503
	objs   *knn.Objects
}

func newFanoutFixture(t *testing.T) *fanoutFixture {
	t.Helper()
	return newFanoutFixtureOn(t, 20) // no cell of this map is self-contained
}

// newFanoutFixtureOn serves a side×side road map.
func newFanoutFixtureOn(t *testing.T, side int) *fanoutFixture {
	t.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: side, Cols: side, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	built, err := partition.Build(g, partition.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := built.WritePaged(&img); err != nil {
		t.Fatal(err)
	}
	open := func() *partition.Sharded {
		s, err := partition.OpenPaged(bytes.NewReader(img.Bytes()), int64(img.Len()),
			partition.Options{CacheFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	f := &fanoutFixture{g: g, local: open(), down: make([]atomic.Bool, 2)}
	meta, err := partition.OpenPagedMeta(bytes.NewReader(img.Bytes()), int64(img.Len()))
	if err != nil {
		t.Fatal(err)
	}

	m := &Manifest{Nodes: []NodeSpec{
		{Name: "a", Cells: []int{0, 1}},
		{Name: "b", Cells: []int{2, 3}},
	}}
	// A node needs the manifest, and the manifest the servers' addresses:
	// bind the listeners first and hand each its node's handler afterwards.
	servers := make([]*httptest.Server, len(m.Nodes))
	for i := range m.Nodes {
		servers[i] = httptest.NewUnstartedServer(nil)
		t.Cleanup(servers[i].Close)
		m.Nodes[i].Addr = "http://" + servers[i].Listener.Addr().String()
		f.nodes = append(f.nodes, m.Nodes[i].Addr)
	}
	for i, spec := range m.Nodes {
		node, err := NewNode(spec.Name, m, open())
		if err != nil {
			t.Fatal(err)
		}
		h, down := node.Handler(), &f.down[i]
		servers[i].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				http.Error(w, `{"error":"injected"}`, http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
		servers[i].Start()
	}
	if f.client, err = NewClient(m, 4, ClientOptions{Timeout: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if f.router, err = partition.NewRemote(meta, RemoteCells(f.client, meta)); err != nil {
		t.Fatal(err)
	}
	var vs []graph.VertexID
	for v := 0; v < g.NumVertices(); v += 5 {
		vs = append(vs, graph.VertexID(v))
	}
	f.objs = knn.NewObjects(g, vs)
	return f
}

// rpcs is the router's total RPC count: silc_cluster_rpcs_total summed over
// the endpoints.
func (f *fanoutFixture) rpcs() int64 {
	var n int64
	for _, em := range f.client.rpcs {
		n += em.calls.Value()
	}
	return n
}

func (f *fanoutFixture) queries() []graph.VertexID {
	n := f.g.NumVertices()
	var qs []graph.VertexID
	for i := 0; i < 12; i++ {
		qs = append(qs, graph.VertexID((i*n/12+i)%n))
	}
	return qs
}

// knnRPCBudget and rangeRPCBudget are the most RPCs one warm k=10 kNN and one
// warm range search may cost on the fixture: one batched interval call for
// everything the search asks of the source's own cell (a search announces
// two levels of its object tree at a time), and one batched race per
// refinement round and destination cell. A router that races once per
// refined object spends twice this, a per-lookup router several times that
// (one call per inspected object and per child cell on top).
const (
	knnRPCBudget   = 7
	rangeRPCBudget = 5
	// raceWasteBudget bounds the share of batched races no Step went on to
	// use, over the whole run.
	raceWasteBudget = 0.25
)

// exactify is what silc.Engine does for a query WithExactDistances: it
// announces every reported neighbour that is not exact yet, then refines
// each. (The engine's own call is held to the same budget by the root
// package's TestClusterExactRPCBudget.)
func exactify(ix core.QueryIndex, qc *core.QueryContext, q graph.VertexID, res *knn.Result) {
	if h, ok := ix.(core.ExpandHinter); ok && h.WantsExpandHints() {
		var dsts []graph.VertexID
		for _, n := range res.Neighbors {
			if !n.Exact {
				dsts = append(dsts, n.Object.Vertex)
			}
		}
		if len(dsts) > 0 {
			h.HintRefine(qc, q, dsts)
		}
	}
	for i := range res.Neighbors {
		if n := &res.Neighbors[i]; !n.Exact {
			d := core.ExactDistance(ix, qc, q, n.Object.Vertex)
			n.Dist, n.Interval, n.Exact = d, core.Interval{Lo: d, Hi: d}, true
		}
	}
}

// TestClusterRPCBudget counts silc_cluster_rpcs_total around each warm kNN
// and range search — as the search leaves them, and refined to exact
// distances the way every benchmark read asks — and fails past the budget, so
// a change that quietly brings back a per-object or per-rectangle call is
// caught by a counter, not by a latency graph. Each warm search asks the
// source's cell exactly once: one interval call. The race-batch counters pin
// the other side of the trade: how many of the races a batch ran ahead of
// time nobody needed.
func TestClusterRPCBudget(t *testing.T) {
	f := newFanoutFixture(t)
	intervals := f.client.rpcs[PathInterval].calls
	run := func(q graph.VertexID, exact bool) (knnRPCs, rangeRPCs, lookups int64) {
		qc := core.NewQueryContext()
		before, ivBefore := f.rpcs(), intervals.Value()
		res := knn.SearchSpec(f.router, qc, f.objs, q, knn.UnboundedSpec(10, knn.VariantKNN))
		if exact {
			exactify(f.router, qc, q, &res)
		}
		if res.Err != nil || qc.Err() != nil {
			t.Fatalf("kNN(%d): %v / %v", q, res.Err, qc.Err())
		}
		mid, ivMid := f.rpcs(), intervals.Value()
		qc.ResetForReuse(context.Background())
		rng := knn.RangeSearchCtx(f.router, qc, f.objs, q, 0.2)
		if exact {
			exactify(f.router, qc, q, &rng)
		}
		if rng.Err != nil || qc.Err() != nil {
			t.Fatalf("range(%d): %v / %v", q, rng.Err, qc.Err())
		}
		if k, r := ivMid-ivBefore, intervals.Value()-ivMid; k != 1 || r != 1 {
			t.Errorf("query %d (exact=%v): kNN asked the source's cell %d times, range %d; want once each", q, exact, k, r)
		}
		return mid - before, f.rpcs() - mid, int64(res.Stats.Lookups)
	}
	for _, q := range f.queries() {
		run(q, true) // first touch: fills the label rows of the objects these queries inspect
	}
	hinted0, used0 := f.router.RaceHintStats()
	for _, exact := range []bool{false, true} {
		var knnTotal, rangeTotal, lookups int64
		for _, q := range f.queries() {
			k, r, l := run(q, exact)
			if k > knnRPCBudget || r > rangeRPCBudget {
				t.Errorf("query %d (exact=%v): kNN cost %d RPCs (budget %d), range %d (budget %d)",
					q, exact, k, knnRPCBudget, r, rangeRPCBudget)
			}
			knnTotal += k
			rangeTotal += r
			lookups += l
		}
		// The budget must mean something on this fixture: the searches inspect
		// more objects than they are allowed RPCs.
		if lookups <= knnTotal {
			t.Fatalf("fixture too small to tell: %d object lookups for %d RPCs", lookups, knnTotal)
		}
		t.Logf("warm k=10 kNN (exact=%v): %.1f RPCs and %.1f object lookups per query; range: %.1f RPCs",
			exact, float64(knnTotal)/12, float64(lookups)/12, float64(rangeTotal)/12)
	}
	hinted, used := f.router.RaceHintStats()
	hinted, used = hinted-hinted0, used-used0
	if hinted == 0 || used > hinted {
		t.Fatalf("race batches raced %d destinations, %d of them used", hinted, used)
	}
	if waste := float64(hinted-used) / float64(hinted); waste > raceWasteBudget {
		t.Errorf("%d of %d batched races were never used (%.0f%%, budget %.0f%%)",
			hinted-used, hinted, 100*waste, 100*raceWasteBudget)
	} else {
		t.Logf("batched races: %d raced, %d used (%.0f%% wasted)", hinted, used, 100*waste)
	}
}

// hookless hides every optional extension of the index it wraps: a search
// over it cannot see the router's hints.
type hookless struct{ core.QueryIndex }

// TestClusterRaceBatchBitIdentical: batching a search's races changes how
// many RPCs the router makes and nothing it reports. The same router answers
// kNN and range searches, as the search leaves them and refined to exact,
// with its hints in reach and hidden; ids, distances, intervals, exactness
// and the search's own counters agree bit for bit, and the exact distances
// are the in-process cells'. One map has a self-contained cell — there a
// same-cell pair is a race whose only candidate is the direct route — and
// one has none.
func TestClusterRaceBatchBitIdentical(t *testing.T) {
	for _, side := range []int{20, 12} {
		f := newFanoutFixtureOn(t, side)
		if sc := f.router.Stats().SelfContained; (sc > 0) != (side == 12) {
			t.Fatalf("%d×%d map: %d self-contained cells", side, side, sc)
		}
		run := func(ix core.QueryIndex, q graph.VertexID, rng, exact bool) knn.Result {
			qc := core.NewQueryContext()
			var res knn.Result
			if rng {
				res = knn.RangeSearchCtx(ix, qc, f.objs, q, 0.2)
			} else {
				res = knn.SearchSpec(ix, qc, f.objs, q, knn.UnboundedSpec(10, knn.VariantKNN))
			}
			if exact {
				exactify(ix, qc, q, &res)
			}
			if res.Err != nil || qc.Err() != nil {
				t.Fatalf("query %d: %v / %v", q, res.Err, qc.Err())
			}
			return res
		}
		for _, q := range f.queries() {
			for _, rng := range []bool{false, true} {
				for _, exact := range []bool{false, true} {
					hinted0, _ := f.router.RaceHintStats()
					plain := run(hookless{f.router}, q, rng, exact)
					if h, _ := f.router.RaceHintStats(); h != hinted0 {
						t.Fatal("a search that cannot see the hinter raced a batch")
					}
					got, local := run(f.router, q, rng, exact), run(f.local, q, rng, exact)
					if len(got.Neighbors) != len(plain.Neighbors) || len(got.Neighbors) != len(local.Neighbors) ||
						got.Stats.Refinements != plain.Stats.Refinements || got.Stats.Lookups != plain.Stats.Lookups {
						t.Fatalf("side %d q=%d range=%v exact=%v: hinted %d neighbours %+v, plain %d %+v, in process %d",
							side, q, rng, exact, len(got.Neighbors), got.Stats, len(plain.Neighbors), plain.Stats, len(local.Neighbors))
					}
					for i, n := range got.Neighbors {
						p := plain.Neighbors[i]
						if n.Object != p.Object || n.Exact != p.Exact || Bits(n.Dist) != Bits(p.Dist) ||
							Bits(n.Interval.Lo) != Bits(p.Interval.Lo) || Bits(n.Interval.Hi) != Bits(p.Interval.Hi) {
							t.Fatalf("side %d q=%d range=%v exact=%v neighbour %d: hinted %+v, plain %+v", side, q, rng, exact, i, n, p)
						}
						if l := local.Neighbors[i]; exact && (n.Object != l.Object || Bits(n.Dist) != Bits(l.Dist)) {
							t.Fatalf("side %d q=%d range=%v neighbour %d: router %+v, in process %+v", side, q, rng, i, n, l)
						}
					}
				}
			}
		}
		if hinted, used := f.router.RaceHintStats(); hinted == 0 || used == 0 {
			t.Fatalf("side %d: %d destinations raced in batches, %d used", side, hinted, used)
		}

		// One refiner at a time: the batch shows in nothing the refiner reports
		// until its own Step, which then costs no RPC and lands on the
		// in-process distance. Pairs the router did not route through gateways
		// are same-cell pairs of a self-contained cell.
		n, own := f.g.NumVertices(), 0
		for u := 0; u < n; u += 7 {
			for v := 1; v < n; v += 13 {
				u, v := graph.VertexID(u), graph.VertexID(v)
				qc := core.NewQueryContext()
				r := f.router.Refine(qc, u, v)
				if r.Done() {
					continue
				}
				if qc.Span.CrossCell == 0 {
					own++
				}
				iv := r.Interval()
				f.router.HintRefine(qc, u, []graph.VertexID{v, v})
				if r.Interval() != iv || r.Done() {
					t.Fatalf("pair (%d,%d): the hint moved the refiner from %v to %v", u, v, iv, r.Interval())
				}
				before := f.rpcs()
				r.Step()
				want := f.local.DistanceCtx(core.NewQueryContext(), u, v)
				if got := r.Interval(); f.rpcs() != before || !r.Done() || Bits(got.Lo) != Bits(want) || Bits(got.Hi) != Bits(want) {
					t.Fatalf("pair (%d,%d): Step after the batch cost %d RPCs and left %v (done=%v), in process %v",
						u, v, f.rpcs()-before, got, r.Done(), want)
				}
			}
		}
		if (own > 0) != (side == 12) {
			t.Fatalf("side %d: %d refined pairs inside a self-contained cell", side, own)
		}
	}
}

// TestClusterDistanceRPCs: an exact cross-cell distance costs at most two
// RPCs — the destination's gateway-interval row (none once the label table
// holds it) and one race — because the source's label is a search the router
// runs on its own copy of the network. A node answers 404 on every path of
// v1, the JSON protocol: the four endpoints that moved to /rpc/v2 and the
// three it shed — the boundary sweep, and exact and region, which are the
// one-candidate race and the one-rectangle interval batch.
func TestClusterDistanceRPCs(t *testing.T) {
	f := newFanoutFixture(t)
	n := f.g.NumVertices()
	pairs := 0
	for _, q := range f.queries() {
		for i := 0; i < 3; i++ {
			dst := graph.VertexID((int(q)*31 + i*97 + n/2) % n)
			if f.router.CellOf(q) == f.router.CellOf(dst) {
				continue
			}
			pairs++
			for _, pass := range []struct {
				name   string
				budget int64
			}{{"cold", 2}, {"warm", 1}} {
				qc := core.NewQueryContext()
				before := f.rpcs()
				f.router.DistanceCtx(qc, q, dst)
				if err := qc.Err(); err != nil {
					t.Fatalf("distance(%d,%d): %v", q, dst, err)
				}
				if got := f.rpcs() - before; got > pass.budget {
					t.Errorf("%s distance(%d,%d) cost %d RPCs, budget %d", pass.name, q, dst, got, pass.budget)
				}
			}
		}
	}
	if pairs < 12 {
		t.Fatalf("only %d cross-cell pairs on the fixture", pairs)
	}
	// The version gate: routers and nodes move from v1 to v2 together.
	for _, gone := range []string{"intervals", "interval", "race", "path", "boundary", "exact", "region"} {
		resp, err := http.Post(f.nodes[0]+"/rpc/v1/"+gone, "application/json", strings.NewReader(`{"cell":0}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST /rpc/v1/%s on a node: status %d, want 404", gone, resp.StatusCode)
		}
	}
}

// cellExact refines (u, v) on one cell index until it is exact: over a
// remote cell, one interval call and one race of one.
func cellExact(cx partition.CellIndex, qc *core.QueryContext, u, v graph.VertexID) float64 {
	r := cx.Refine(qc, u, v)
	for r.Step() {
	}
	return r.Interval().Lo
}

// TestClusterFoldedRPCs: the two lookups that had endpoints of their own
// travel as special cases of the others and keep every bit. A region lower
// bound the expansion hints do not cover is an interval batch of one
// cell; a pair's exact within-cell distance is a race with one
// zero-offset candidate. Both must equal what the in-process cells compute,
// and must go out on exactly those endpoints.
func TestClusterFoldedRPCs(t *testing.T) {
	f := newFanoutFixture(t)
	n := f.g.NumVertices()
	calls := func(ep string) int64 { return f.client.rpcs[ep].calls.Value() }

	root := geom.RootCell()
	cells := []geom.Cell{root, root.Child(0).Child(3), root.Child(1).Child(2).Child(0), root.Child(3).Child(0).Child(3).Child(3).Child(1)}
	before := calls(PathInterval)
	for _, q := range f.queries() {
		for _, cell := range append(cells, geom.Cell{Code: f.g.Code(q) &^ 0xfff, Level: 10}) {
			qc := core.NewQueryContext() // fresh: no hint can answer
			got := f.router.RegionLowerBoundCtx(qc, q, cell)
			if err := qc.Err(); err != nil {
				t.Fatal(err)
			}
			if want := f.local.RegionLowerBoundCtx(core.NewQueryContext(), q, cell); Bits(got) != Bits(want) {
				t.Fatalf("region bound (%d, %v): router %v, in process %v", q, cell, got, want)
			}
		}
	}
	if calls(PathInterval) == before {
		t.Fatal("no region lower bound reached the interval endpoint")
	}

	// A pair's exact within-cell distance, asked of the remote cell the way a
	// self-contained cell's same-cell query asks it: Refine, then Step.
	before = calls(PathRace)
	for c := 0; c < f.router.NumPartitions(); c++ {
		nv := f.router.CellVertexCount(c)
		for u := 0; u < nv; u += 9 {
			u, v := graph.VertexID(u), graph.VertexID((u*13+nv/2)%nv)
			qc := core.NewQueryContext()
			got := cellExact(f.router.CellIndexAt(c), qc, u, v)
			if err := qc.Err(); err != nil {
				t.Fatal(err)
			}
			if want := cellExact(f.local.CellIndexAt(c), core.NewQueryContext(), u, v); Bits(got) != Bits(want) {
				t.Fatalf("cell %d exact(%d,%d): remote %v, in process %v", c, u, v, got, want)
			}
		}
	}
	if calls(PathRace) == before {
		t.Fatal("no exact distance reached the race endpoint")
	}
	for u := 0; u < n; u += 7 {
		u, v := graph.VertexID(u), graph.VertexID((u*31+n/2)%n)
		qc := core.NewQueryContext()
		got := f.router.DistanceCtx(qc, u, v)
		if err := qc.Err(); err != nil {
			t.Fatal(err)
		}
		if want := f.local.DistanceCtx(core.NewQueryContext(), u, v); Bits(got) != Bits(want) {
			t.Fatalf("distance(%d,%d): router %v, in process %v", u, v, got, want)
		}
	}
}

// TestClientInlineCallCancelled: the attempt runs on the caller's goroutine;
// a context that expires mid-call still ends the call with the context's
// error and does not mark the replica down.
func TestClientInlineCallCancelled(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(release)
	c := twoReplicaClient(t, slow.URL, slow.URL, ClientOptions{Timeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var resp IntervalResp
	err := c.Call(ctx, 0, PathInterval, &IntervalReq{}, &resp)
	if err != context.DeadlineExceeded {
		t.Fatalf("Call = %v, want context.DeadlineExceeded", err)
	}
	if c.retries.Value() != 0 || c.nodes[0].downUntil.Load() != 0 || c.nodes[1].downUntil.Load() != 0 {
		t.Fatalf("cancelled call retried (%d) or marked a replica down", c.retries.Value())
	}
	if c.failures.Value() != 1 {
		t.Fatalf("failures = %d, want 1", c.failures.Value())
	}
}

// TestClusterFailureRule: an RPC that exhausts its replicas fails the query,
// and is not retried in another form. With the only replica of the source's
// cell answering 503, a kNN ends in one error wrapping the client's "every
// replica failed"; the expansion's batched interval call is the single
// interval RPC the search makes — one attempt per replica, not one more call
// per lookup the batch stood for — and the loose stand-ins it left behind
// reach neither the label table nor the next query.
func TestClusterFailureRule(t *testing.T) {
	f := newFanoutFixture(t)
	var q graph.VertexID
	for f.router.CellOf(q) != 0 {
		q++
	}
	qc := core.NewQueryContext() // one pooled context: the hints it carries must die with each query
	search := func() knn.Result {
		qc.ResetForReuse(context.Background())
		return knn.SearchSpec(f.router, qc, f.objs, q, knn.UnboundedSpec(10, knn.VariantKNN))
	}
	want := search()
	if want.Err != nil || qc.Err() != nil {
		t.Fatal(want.Err, qc.Err())
	}

	f.down[0].Store(true) // node a: the one replica of cells 0 and 1
	em := f.client.rpcs[PathInterval]
	calls, attempts, failures := em.calls.Value(), em.errors.Value(), f.client.failures.Value()
	if err := search().Err; err == nil || !strings.Contains(err.Error(), "every replica failed") {
		t.Fatalf("kNN over a dead cell: err = %v, want one wrapping \"every replica failed\"", err)
	}
	if c, a := em.calls.Value()-calls, em.errors.Value()-attempts; c != 1 || a != 1 {
		t.Fatalf("the failed batch cost %d interval calls and %d attempts, want 1 and 1 (one replica)", c, a)
	}
	if got := f.client.failures.Value() - failures; got < 1 {
		t.Fatalf("silc_cluster_call_failures_total moved by %d", got)
	}

	f.down[0].Store(false)
	f.client.Probe(context.Background()) // re-admit node a ahead of its cooldown
	got := search()
	if got.Err != nil || qc.Err() != nil {
		t.Fatal(got.Err, qc.Err())
	}
	if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
		t.Fatalf("kNN after the fault differs from before it:\n got  %+v\n want %+v", got.Neighbors, want.Neighbors)
	}
}

// TestClusterRaceBatchFailure: the failure rule holds for a batched race. A
// kNN from a live cell whose candidates sit in a dead node's cells fails at
// its first batch — one race call, one attempt, no single race after it for
// the destinations the batch stood for or for any other — and the stand-ins
// the batch parked die with the query: the same pooled context answers as
// before once the node is back.
func TestClusterRaceBatchFailure(t *testing.T) {
	f := newFanoutFixture(t)
	qc := core.NewQueryContext()
	search := func(q graph.VertexID) knn.Result {
		qc.ResetForReuse(context.Background())
		res := knn.SearchSpec(f.router, qc, f.objs, q, knn.UnboundedSpec(10, knn.VariantKNN))
		if res.Err == nil {
			exactify(f.router, qc, q, &res)
			res.Err = qc.Err()
		}
		return res
	}
	race, intervals := f.client.rpcs[PathRace], f.client.rpcs[PathIntervals]
	// A source on node a whose warm search races on both of node b's cells
	// and asks it nothing else (its label rows are in the table after the
	// first run): once the first batch has failed, a second cell's batch and
	// every refiner's own race are still to come.
	q, found := graph.VertexID(0), false
	var want knn.Result
	for ; int(q) < f.g.NumVertices() && !found; q++ {
		if f.router.CellOf(q) > 1 {
			continue
		}
		search(q)
		c2, c3, rows := f.client.cellCalls[2].Value(), f.client.cellCalls[3].Value(), intervals.calls.Value()
		want = search(q)
		found = want.Err == nil && intervals.calls.Value() == rows &&
			f.client.cellCalls[2].Value() > c2 && f.client.cellCalls[3].Value() > c3
	}
	if q--; !found {
		t.Fatal("no source on node a whose warm kNN races on both cells of node b")
	}

	f.down[1].Store(true)
	calls, attempts, failures := race.calls.Value(), race.errors.Value(), f.client.failures.Value()
	if err := search(q).Err; err == nil || !strings.Contains(err.Error(), "every replica failed") {
		t.Fatalf("kNN racing on a dead cell: err = %v, want one wrapping \"every replica failed\"", err)
	}
	if a, fl := race.errors.Value()-attempts, f.client.failures.Value()-failures; a != 1 || fl != 1 {
		t.Fatalf("the failed query cost %d failed race attempts and %d failed calls, want 1 and 1", a, fl)
	}
	t.Logf("source %d: %d race calls before the one that failed", q, race.calls.Value()-calls-1)

	// The same rule, one announcement at a time: refiners toward both dead
	// cells, looked up while the node still answered. The first cell's batch
	// fails the query; the second cell's batch is not sent, and the refiner
	// it would have served races nothing on its own either.
	f.down[1].Store(false)
	f.client.Probe(context.Background())
	qc.ResetForReuse(context.Background())
	var dsts []graph.VertexID
	var last core.DistanceRefiner
	for _, cell := range []int{2, 3} {
		for _, o := range f.objs.Members() {
			if r := f.router.Refine(qc, q, o.Vertex); f.router.CellOf(o.Vertex) == cell && !r.Done() {
				dsts, last = append(dsts, o.Vertex), r
				break
			}
		}
	}
	if len(dsts) != 2 || qc.Err() != nil {
		t.Fatalf("refiners toward cells 2 and 3: %d, err %v", len(dsts), qc.Err())
	}
	f.down[1].Store(true)
	calls = race.calls.Value()
	f.router.HintRefine(qc, q, dsts)
	iv := last.Interval()
	last.Step()
	if got := race.calls.Value() - calls; got != 1 || !qc.Failed() || last.Interval() != iv {
		t.Fatalf("a failed batch was followed by %d more race calls (query failed: %v; refiner %v → %v)",
			got-1, qc.Failed(), iv, last.Interval())
	}

	f.down[1].Store(false)
	f.client.Probe(context.Background())
	got := search(q)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
		t.Fatalf("kNN after the fault differs from before it:\n got  %+v\n want %+v", got.Neighbors, want.Neighbors)
	}
}
