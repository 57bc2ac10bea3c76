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
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 20, Cols: 20, Seed: 5})
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

// knnRPCBudget is the most RPCs one warm k=10 kNN may cost on the fixture:
// one batched interval call per expanded interior node that reaches into the
// source's cell, and one race per refined object. A per-lookup router spends
// several times this (one call per inspected object and per child rectangle
// on top).
const knnRPCBudget = 20

// TestClusterRPCBudget counts silc_cluster_rpcs_total around each warm kNN
// and range search and fails past the budget, so a change that quietly
// brings back a per-object or per-rectangle call is caught by a counter,
// not by a latency graph.
func TestClusterRPCBudget(t *testing.T) {
	f := newFanoutFixture(t)
	run := func(q graph.VertexID) (knnRPCs, rangeRPCs, lookups int64) {
		qc := core.NewQueryContext()
		before := f.rpcs()
		res := knn.SearchSpec(f.router, qc, f.objs, q, knn.UnboundedSpec(10, knn.VariantKNN))
		if res.Err != nil || qc.Err() != nil {
			t.Fatalf("kNN(%d): %v / %v", q, res.Err, qc.Err())
		}
		mid := f.rpcs()
		qc.ResetForReuse(context.Background())
		if res := knn.RangeSearchCtx(f.router, qc, f.objs, q, 0.2); res.Err != nil || qc.Err() != nil {
			t.Fatalf("range(%d): %v / %v", q, res.Err, qc.Err())
		}
		return mid - before, f.rpcs() - mid, int64(res.Stats.Lookups)
	}
	for _, q := range f.queries() {
		run(q) // first touch: fills the label rows of the objects these queries inspect
	}
	var total, lookups int64
	for _, q := range f.queries() {
		k, r, l := run(q)
		if k > knnRPCBudget || r > knnRPCBudget {
			t.Errorf("query %d: kNN cost %d RPCs, range %d; budget %d", q, k, r, knnRPCBudget)
		}
		total += k
		lookups += l
	}
	// The budget must mean something on this fixture: the searches inspect
	// more objects than they are allowed RPCs.
	if lookups <= total {
		t.Fatalf("fixture too small to tell: %d object lookups for %d RPCs", lookups, total)
	}
	t.Logf("warm k=10 kNN: %.1f RPCs and %.1f object lookups per query", float64(total)/12, float64(lookups)/12)
}

// TestClusterDistanceRPCs: an exact cross-cell distance costs at most two
// RPCs — the destination's gateway-interval row (none once the label table
// holds it) and one race — because the source's label is a search the router
// runs on its own copy of the network. The endpoints the protocol has shed —
// the boundary sweep, and exact and region, which are the one-candidate race
// and the one-rectangle interval batch — a node answers 404.
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
	for _, gone := range []string{"boundary", "exact", "region"} {
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

// TestClusterFoldedRPCs: the two lookups that had endpoints of their own
// travel as special cases of the others and keep every bit. A region lower
// bound the expansion hints do not cover is an interval batch of one
// rectangle; a pair's exact within-cell distance is a race with one
// zero-offset candidate. Both must equal what the in-process cells compute,
// and must go out on exactly those endpoints.
func TestClusterFoldedRPCs(t *testing.T) {
	f := newFanoutFixture(t)
	n := f.g.NumVertices()
	calls := func(ep string) int64 { return f.client.rpcs[ep].calls.Value() }

	rects := []geom.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, {MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.6},
		{MinX: 0.55, MinY: 0.05, MaxX: 0.9, MaxY: 0.45}, {MinX: 0.7, MinY: 0.7, MaxX: 0.71, MaxY: 0.71}}
	before := calls(PathInterval)
	for _, q := range f.queries() {
		for _, rect := range rects {
			qc := core.NewQueryContext() // fresh: no hint can answer
			got := f.router.RegionLowerBoundCtx(qc, q, rect)
			if err := qc.Err(); err != nil {
				t.Fatal(err)
			}
			if want := f.local.RegionLowerBoundCtx(core.NewQueryContext(), q, rect); Bits(got) != Bits(want) {
				t.Fatalf("region bound (%d, %v): router %v, in process %v", q, rect, got, want)
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
			got := partition.CellExact(f.router.CellIndexAt(c), qc, u, v)
			if err := qc.Err(); err != nil {
				t.Fatal(err)
			}
			if want := partition.CellExact(f.local.CellIndexAt(c), core.NewQueryContext(), u, v); Bits(got) != Bits(want) {
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
