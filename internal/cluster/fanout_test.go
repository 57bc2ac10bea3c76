package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"silc/internal/core"
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
	nodes  []string           // the nodes' base URLs
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
	f := &fanoutFixture{g: g}
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
		servers[i].Config.Handler = node.Handler()
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
// runs on its own copy of the network. The boundary sweep RPC that used to
// come first is gone from the protocol: a node answers it 404.
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
	resp, err := http.Post(f.nodes[0]+"/rpc/v1/boundary", "application/json", strings.NewReader(`{"cell":0,"src":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /rpc/v1/boundary on a node: status %d, want 404", resp.StatusCode)
	}
}

// TestClientInlineCallCancelled: without hedging the attempt runs on the
// caller's goroutine; a context that expires mid-call still ends the call
// with the context's error and does not mark the replica down.
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
	var resp ExactResp
	err := c.Call(ctx, 0, PathExact, &ExactReq{}, &resp)
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

// TestClientSourceBatchOldNode: a node that only speaks the single form of
// the interval RPC ignores the batch fields and answers one pair; the router
// must read that as "no batch", not as answers.
func TestClientSourceBatchOldNode(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(IntervalResp{Lo: Bits(1), Hi: Bits(2)})
	}))
	defer old.Close()
	c := twoReplicaClient(t, old.URL, old.URL, ClientOptions{Timeout: time.Second})
	rc := &RemoteCell{c: c}
	qc := core.NewQueryContext()
	if _, _, ok := rc.SourceBatch(qc, 0, []graph.VertexID{1, 2}, nil); ok {
		t.Fatal("SourceBatch accepted a single-form reply as a batch")
	}
	if qc.Failed() {
		t.Fatalf("an unanswered batch failed the query: %v", qc.Err())
	}
}
