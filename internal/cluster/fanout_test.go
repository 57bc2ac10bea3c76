package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/partition"
)

// The fan-out contract: the gateway-interval memo and the batched interval
// RPC change how many calls a query makes and nothing about its answer. The
// fixture is a 4-cell paged image served by two nodes over real HTTP, a
// router over RemoteCells, and the same image opened in process as the
// reference.

type fanoutFixture struct {
	g      *graph.Network
	meta   *partition.RouterMeta
	client *Client
	cells  []*RemoteCell
	router *partition.Sharded // over the RemoteCells
	local  *partition.Sharded // the same image, in process
	objs   *knn.Objects
	down   atomic.Bool // true: every node answers 503
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
	f := &fanoutFixture{g: g, local: open()}
	if f.meta, err = partition.OpenPagedMeta(bytes.NewReader(img.Bytes()), int64(img.Len())); err != nil {
		t.Fatal(err)
	}

	m := &Manifest{Nodes: []NodeSpec{
		{Name: "a", Cells: []int{0, 1}},
		{Name: "b", Cells: []int{2, 3}},
	}}
	// A node needs the manifest, and the manifest the servers' addresses:
	// start the servers first and hand each its node's handler afterwards.
	handlers := make([]atomic.Pointer[http.Handler], len(m.Nodes))
	for i := range m.Nodes {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if f.down.Load() {
				writeRPCError(w, http.StatusServiceUnavailable, "down for the test")
				return
			}
			(*handlers[i].Load()).ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		m.Nodes[i].Addr = srv.URL
	}
	for i, spec := range m.Nodes {
		node, err := NewNode(spec.Name, m, open())
		if err != nil {
			t.Fatal(err)
		}
		h := node.Handler()
		handlers[i].Store(&h)
	}
	if f.client, err = NewClient(m, 4, ClientOptions{Timeout: 10 * time.Second, FailCooldown: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	backends := RemoteCells(f.client, f.meta)
	for _, b := range backends {
		f.cells = append(f.cells, b.(*RemoteCell))
	}
	if f.router, err = partition.NewRemote(f.meta, backends); err != nil {
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

func (f *fanoutFixture) memoRows() int {
	n := 0
	for _, rc := range f.cells {
		rc.memo.mu.Lock()
		n += len(rc.memo.rows)
		rc.memo.mu.Unlock()
	}
	return n
}

// transcript answers a fixed kNN + range + distance mix on ix and renders
// every reported id with its exact distance as a float64 bit pattern, so two
// transcripts are equal iff the answers are bit-identical. (A router refines
// a remote pair straight to exact where the in-process engine tightens step
// by step, so the loose intervals and step counts legitimately differ
// between the two; raw additionally renders those, for comparing a router
// with itself.)
//
// A failed query renders its error into the transcript (and so never equals
// a good one) instead of failing the test from what may be a worker
// goroutine.
func (f *fanoutFixture) transcript(ix *partition.Sharded, q graph.VertexID, raw bool) string {
	var sb bytes.Buffer
	qc := core.NewQueryContext()
	render := func(kind string, res knn.Result) {
		if res.Err != nil {
			fmt.Fprintf(&sb, "%s(%d) FAILED: %v\n", kind, q, res.Err)
		}
		lines := make([]string, len(res.Neighbors))
		for i, nb := range res.Neighbors {
			qc.ResetForReuse(context.Background())
			lines[i] = fmt.Sprintf(" %d@%x", nb.Object.ID, math.Float64bits(ix.DistanceCtx(qc, q, nb.Object.Vertex)))
			if raw {
				lines[i] += fmt.Sprintf("[%x,%x]", math.Float64bits(nb.Interval.Lo), math.Float64bits(nb.Interval.Hi))
			}
		}
		if !res.Sorted {
			sort.Strings(lines)
		}
		sb.WriteString(kind)
		if raw {
			fmt.Fprintf(&sb, " lookups=%d refinements=%d", res.Stats.Lookups, res.Stats.Refinements)
		}
		fmt.Fprintln(&sb, lines)
	}
	render("knn", knn.SearchSpec(ix, qc, f.objs, q, knn.UnboundedSpec(10, knn.VariantKNN)))
	qc.ResetForReuse(context.Background())
	render("inn", knn.SearchSpec(ix, qc, f.objs, q, knn.UnboundedSpec(4, knn.VariantINN)))
	qc.ResetForReuse(context.Background())
	render("range", knn.RangeSearchCtx(ix, qc, f.objs, q, 0.2))
	n := f.g.NumVertices()
	for i := 0; i < 3; i++ {
		qc.ResetForReuse(context.Background())
		dst := graph.VertexID((int(q)*31 + i*97 + n/2) % n)
		fmt.Fprintf(&sb, "dist(%d)=%x\n", dst, math.Float64bits(ix.DistanceCtx(qc, q, dst)))
	}
	if err := qc.Err(); err != nil {
		fmt.Fprintf(&sb, "query %d FAILED: %v\n", q, err)
	}
	return sb.String()
}

func (f *fanoutFixture) queries() []graph.VertexID {
	n := f.g.NumVertices()
	var qs []graph.VertexID
	for i := 0; i < 12; i++ {
		qs = append(qs, graph.VertexID((i*n/12+i)%n))
	}
	return qs
}

// TestClusterMemoBitIdentical: a cold memo, a warm memo and the in-process
// engine give the same ids and the same float64 bits for kNN, incremental
// kNN, range and distance — sequentially, and from 8 goroutines sharing the
// router (run under -race in CI).
func TestClusterMemoBitIdentical(t *testing.T) {
	f := newFanoutFixture(t)
	want := make(map[graph.VertexID]string)
	for _, q := range f.queries() {
		want[q] = f.transcript(f.local, q, false)
		if strings.Contains(want[q], "FAILED") {
			t.Fatalf("in-process reference failed:\n%s", want[q])
		}
	}
	cold := make(map[graph.VertexID]string)
	for _, pass := range []string{"cold", "warm"} {
		hits0 := f.client.memoHits.Value()
		for _, q := range f.queries() {
			if got := f.transcript(f.router, q, false); got != want[q] {
				t.Fatalf("%s memo, query %d: router diverges from in-process\n--- in-process\n%s--- router\n%s", pass, q, want[q], got)
			}
			// Between the passes even the loose intervals and the step
			// counts must agree: a memo hit hands the search the same bits.
			raw := f.transcript(f.router, q, true)
			if pass == "cold" {
				cold[q] = raw
			} else if raw != cold[q] {
				t.Fatalf("query %d: warm router diverges from cold router\n--- cold\n%s--- warm\n%s", q, cold[q], raw)
			}
		}
		if pass == "warm" && f.client.memoHits.Value() == hits0 {
			t.Fatal("warm pass never hit the memo")
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range f.queries() {
				if i%2 == w%2 {
					continue
				}
				if got := f.transcript(f.router, q, false); got != want[q] {
					errs <- fmt.Sprintf("worker %d query %d diverged", w, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// knnRPCBudget is the most RPCs one warm k=10 kNN may cost on the fixture:
// one boundary sweep, one batched interval call per expanded interior node
// that reaches into the source's cell, and one race per refined object. The
// pre-memo, per-lookup router spent several times this (one call per
// inspected object and per child rectangle on top).
const knnRPCBudget = 25

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
		run(q) // first touch: fills the memo rows of the objects these queries inspect
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

// TestClusterMemoSkipsFailedCalls: while every replica is down, queries
// fail and nothing enters the memo — the loose stand-in intervals a failed
// call returns must never be remembered — and once the nodes are back the
// next answers are exact again.
func TestClusterMemoSkipsFailedCalls(t *testing.T) {
	f := newFanoutFixture(t)
	q := f.queries()[3]
	want := f.transcript(f.local, q, false)

	f.down.Store(true)
	qc := core.NewQueryContext()
	res := knn.SearchSpec(f.router, qc, f.objs, q, knn.UnboundedSpec(10, knn.VariantKNN))
	if res.Err == nil && qc.Err() == nil {
		t.Fatal("kNN succeeded with every replica down")
	}
	n := f.g.NumVertices()
	for v := 0; v < n; v += 7 { // gateway rows for many destinations, all failing
		qc := core.NewQueryContext()
		f.router.DistanceIntervalCtx(qc, q, graph.VertexID(v))
		if v != int(q) && !qc.Failed() {
			t.Fatalf("interval(%d,%d) did not fail with every replica down", q, v)
		}
	}
	if rows, gauge := f.memoRows(), f.client.memoEntries.Value(); rows != 0 || gauge != 0 {
		t.Fatalf("memo holds %d rows (gauge %d) after failed calls only", rows, gauge)
	}

	f.down.Store(false)
	time.Sleep(5 * time.Millisecond) // past the 1 ms fail cooldown
	if got := f.transcript(f.router, q, false); got != want {
		t.Fatalf("after recovery the router diverges from in-process\n--- in-process\n%s--- router\n%s", want, got)
	}
	if f.memoRows() == 0 {
		t.Fatal("recovered queries stored no memo rows")
	}
}

// TestClusterMemoBound: asking for the gateway rows of every vertex in both
// directions — far more rows than the bound — never grows any cell's table
// past memoRowsPerCell, keeps all tables together within the closure's
// footprint, and keeps the gauge equal to the rows actually held.
func TestClusterMemoBound(t *testing.T) {
	f := newFanoutFixture(t)
	limit := memoRowsPerCell(f.meta.NumBoundary())
	closureBytes := f.router.Stats().ClosureBytes
	n := f.g.NumVertices()
	if n*2 <= 4*limit {
		t.Fatalf("fixture too small: %d rows to ask for, tables hold %d", 2*n, 4*limit)
	}
	for v := 0; v < n; v++ {
		// Cell-local ids are dense, so (cell, v mod cell size) scans every
		// vertex of every cell.
		rc := f.cells[v%4]
		local := graph.VertexID(v / 4 % f.meta.CellVertexCount(v%4))
		for _, toV := range []bool{true, false} {
			qc := core.NewQueryContext()
			row := rc.BoundaryIntervals(qc, local, toV)
			if qc.Failed() || len(row) != rc.nb {
				t.Fatalf("row (%d,%v): %v, %d entries", v, toV, qc.Err(), len(row))
			}
		}
		var bytes int64
		for _, rc := range f.cells {
			rows := len(rc.memo.rows)
			if rows > limit {
				t.Fatalf("after vertex %d: cell %d holds %d rows, bound %d", v, rc.cell, rows, limit)
			}
			bytes += int64(rows) * int64(rc.nb) * 16
		}
		if bytes > closureBytes {
			t.Fatalf("after vertex %d: memo holds %d interval bytes, closure is %d", v, bytes, closureBytes)
		}
	}
	if rows, gauge := f.memoRows(), f.client.memoEntries.Value(); int64(rows) != gauge {
		t.Fatalf("silc_cluster_memo_entries = %d, tables hold %d rows", gauge, rows)
	}
	if f.memoRows() != 4*limit {
		t.Fatalf("tables hold %d rows after the scan, want them full at %d", f.memoRows(), 4*limit)
	}
	// A row that survived is still the row a fresh call returns.
	for _, rc := range f.cells {
		for k, row := range rc.memo.rows {
			rc2 := &RemoteCell{c: rc.c, cell: rc.cell, nb: rc.nb, memo: intervalMemo{max: 1}}
			fresh := rc2.BoundaryIntervals(core.NewQueryContext(), k.v, k.toV)
			for i := range row {
				if row[i] != fresh[i] {
					t.Fatalf("cell %d row (%d,%v)[%d]: memo %v, fresh %v", rc.cell, k.v, k.toV, i, row[i], fresh[i])
				}
			}
			break
		}
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
	rc := &RemoteCell{c: c, memo: intervalMemo{max: 1}}
	qc := core.NewQueryContext()
	if _, _, ok := rc.SourceBatch(qc, 0, []graph.VertexID{1, 2}, nil); ok {
		t.Fatal("SourceBatch accepted a single-form reply as a batch")
	}
	if qc.Failed() {
		t.Fatalf("an unanswered batch failed the query: %v", qc.Err())
	}
}
