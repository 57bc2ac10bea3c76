package silc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

func batchFixture(t *testing.T) (*Engine, *ObjectSet, []VertexID) {
	t.Helper()
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var objVerts []VertexID
	for v := 0; v < net.NumVertices(); v += 3 {
		objVerts = append(objVerts, VertexID(v))
	}
	objs, err := NewObjectSet(net, objVerts)
	if err != nil {
		t.Fatal(err)
	}
	var queries []VertexID
	for v := 0; v < net.NumVertices(); v += 7 {
		queries = append(queries, VertexID(v))
	}
	return ix, objs, queries
}

// TestQueryBatchDeadlinePropagates: the request context's deadline reaches
// the batch workers — an already-expired deadline must stop the batch
// before any query runs and surface as the returned error, exactly like an
// HTTP request timeout hitting the /knn batch endpoint.
func TestQueryBatchDeadlinePropagates(t *testing.T) {
	eng, objs, queries := batchFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // simulate a deadline that fired before the batch started
	br, err := eng.QueryBatch(ctx, objs, queries, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expired context: got err %v, want context.Canceled", err)
	}
	for i, res := range br.Results {
		if len(res.Neighbors) != 0 {
			t.Fatalf("query %d ran despite the expired context", i)
		}
	}
}

// flakyReaderAt injects a bounded number of read failures into an
// otherwise-working ReaderAt, so a test can break exactly one query's page
// reads.
type flakyReaderAt struct {
	ra       io.ReaderAt
	failures atomic.Int64 // remaining ReadAt calls to fail
}

var errInjected = errors.New("injected read failure")

func (f *flakyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if f.failures.Load() > 0 && f.failures.Add(-1) >= 0 {
		return 0, errInjected
	}
	return f.ra.ReadAt(p, off)
}

// TestQueryBatchSurvivesQueryFailure is the regression test for the silent
// worker-abandonment bug: a storage fault failing one query used to kill
// its worker with a bare return, so the queries that worker would have
// claimed were never run — and because only ctx.Err() was returned, the
// caller saw a nil error with silently-zero result slots. A per-query
// failure must instead be reported AND leave every other query answered.
func TestQueryBatchSurvivesQueryFailure(t *testing.T) {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := Build(net, BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sx.WritePaged(&buf); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyReaderAt{ra: bytes.NewReader(buf.Bytes())}
	eng, err := OpenEngineAt(flaky, int64(buf.Len()), nil, BuildOptions{CacheFraction: 0.02})
	if err != nil {
		t.Fatal(err)
	}

	var objVerts []VertexID
	for v := 0; v < net.NumVertices(); v += 3 {
		objVerts = append(objVerts, VertexID(v))
	}
	objs, err := NewObjectSet(net, objVerts)
	if err != nil {
		t.Fatal(err)
	}
	var queries []VertexID
	for v := 0; v < net.NumVertices(); v += 17 {
		queries = append(queries, VertexID(v))
	}

	// One worker, one injected read failure: deterministically, the first
	// query that touches the store fails and every later one must still run.
	flaky.failures.Store(1)
	br, err := eng.QueryBatch(context.Background(), objs, queries, 3, WithWorkers(1))
	if err == nil {
		t.Fatal("one query's storage fault was silently swallowed: QueryBatch returned nil error")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("batch error %v does not wrap the injected read failure", err)
	}
	if !strings.Contains(err.Error(), "queries[0]") {
		t.Fatalf("batch error %q does not name the failed query", err)
	}
	if len(br.Results[0].Neighbors) != 0 {
		t.Fatal("the failed query's slot is not zero")
	}
	for i := 1; i < len(queries); i++ {
		if len(br.Results[i].Neighbors) == 0 {
			t.Fatalf("query %d was abandoned after query 0's failure", i)
		}
	}

	// Same batch with the fault gone: no error, every slot filled.
	br, err = eng.QueryBatch(context.Background(), objs, queries, 3, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if len(br.Results[i].Neighbors) == 0 {
			t.Fatalf("query %d has no result on a healthy index", i)
		}
	}
}

// pagedFlakyIndex opens a paged monolithic index through a fault-injecting
// ReaderAt, with an object set and query list over its network.
func pagedFlakyIndex(t *testing.T) (*Engine, *flakyReaderAt, *ObjectSet, []VertexID) {
	t.Helper()
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WritePaged(&buf); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyReaderAt{ra: bytes.NewReader(buf.Bytes())}
	paged, err := OpenEngineAt(flaky, int64(buf.Len()), nil, BuildOptions{CacheFraction: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var objVerts []VertexID
	for v := 0; v < net.NumVertices(); v += 3 {
		objVerts = append(objVerts, VertexID(v))
	}
	objs, err := NewObjectSet(net, objVerts)
	if err != nil {
		t.Fatal(err)
	}
	var queries []VertexID
	for v := 0; v < net.NumVertices(); v += 17 {
		queries = append(queries, VertexID(v))
	}
	return paged, flaky, objs, queries
}

// TestBatchStatsAccounting is the regression test for the stats-overcount
// bug: BatchStats.Queries used to report len(queries) — and derive QPS from
// it — even when slots failed or were never run. It must count only ANSWERED
// queries, with Failed/Skipped carrying the remainder, so the three always
// add up to the request.
func TestBatchStatsAccounting(t *testing.T) {
	eng, flaky, objs, queries := pagedFlakyIndex(t)

	// One worker, one injected storage fault: the first query fails, the
	// rest must be answered and counted as such.
	flaky.failures.Store(1)
	br, err := eng.QueryBatch(context.Background(), objs, queries, 3, WithWorkers(1))
	if !errors.Is(err, errInjected) {
		t.Fatalf("batch error %v does not wrap the injected fault", err)
	}
	st := br.Stats
	if st.Queries != len(queries)-1 || st.Failed != 1 || st.Skipped != 0 {
		t.Fatalf("answered/failed/skipped = %d/%d/%d, want %d/1/0",
			st.Queries, st.Failed, st.Skipped, len(queries)-1)
	}
	if st.Wall > 0 {
		want := float64(st.Queries) / st.Wall.Seconds()
		if math.Abs(st.QPS-want) > want*1e-6 {
			t.Fatalf("QPS %v not derived from the %d answered queries (want %v)", st.QPS, st.Queries, want)
		}
	}

	// A context cancelled before the batch starts: nothing answered, nothing
	// failed, everything skipped — and a zero QPS, not a fabricated one.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br, err = eng.QueryBatch(ctx, objs, queries, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: got %v", err)
	}
	st = br.Stats
	if st.Queries != 0 || st.Failed != 0 || st.Skipped != len(queries) {
		t.Fatalf("cancelled answered/failed/skipped = %d/%d/%d, want 0/0/%d",
			st.Queries, st.Failed, st.Skipped, len(queries))
	}
	if st.QPS != 0 {
		t.Fatalf("cancelled batch reports QPS %v, want 0", st.QPS)
	}
}
