package partition_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"silc/internal/cluster"
	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/partition"
)

// The label-table contract: the destination-label rows a Sharded keeps change
// how many cell lookups (in process) or RPCs (remote) a query makes and
// nothing about its answer. Every test runs over both kinds of cell backend,
// on one 4-cell paged image: opened in process behind a 5% pool, and served
// by two cluster nodes over HTTP to a router-side Sharded over RemoteCells.

// faultyReader fails every read while fail is set: a disk that went away.
type faultyReader struct {
	r    io.ReaderAt
	fail atomic.Bool
}

func (f *faultyReader) ReadAt(p []byte, off int64) (int, error) {
	if f.fail.Load() {
		return 0, errors.New("injected read fault")
	}
	return f.r.ReadAt(p, off)
}

// labelBackend is one Sharded under test plus the switch that makes every
// label fill on it fail.
type labelBackend struct {
	name  string
	ix    *partition.Sharded
	fault func(on bool)
}

type labelFixture struct {
	g        *graph.Network
	img      []byte
	objs     *knn.Objects
	backends []labelBackend
}

// open opens the image in process, cold, behind its own 5% pool.
func (f *labelFixture) open(t *testing.T, ra io.ReaderAt) *partition.Sharded {
	t.Helper()
	s, err := partition.OpenPaged(ra, int64(len(f.img)), partition.Options{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newLabelFixture(t *testing.T) *labelFixture {
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
	f := &labelFixture{g: g, img: img.Bytes()}
	var vs []graph.VertexID
	for v := 0; v < g.NumVertices(); v += 5 {
		vs = append(vs, graph.VertexID(v))
	}
	f.objs = knn.NewObjects(g, vs)

	disk := &faultyReader{r: bytes.NewReader(f.img)}
	f.backends = append(f.backends, labelBackend{"inproc", f.open(t, disk), disk.fail.Store})

	// Two nodes, each behind a listener that is bound before the manifest is
	// written and answers 503 while down is set.
	var down atomic.Bool
	m := &cluster.Manifest{Nodes: []cluster.NodeSpec{
		{Name: "a", Cells: []int{0, 1}},
		{Name: "b", Cells: []int{2, 3}},
	}}
	servers := make([]*httptest.Server, len(m.Nodes))
	for i := range m.Nodes {
		servers[i] = httptest.NewUnstartedServer(nil)
		t.Cleanup(servers[i].Close)
		m.Nodes[i].Addr = "http://" + servers[i].Listener.Addr().String()
	}
	for i, spec := range m.Nodes {
		node, err := cluster.NewNode(spec.Name, m, f.open(t, bytes.NewReader(f.img)))
		if err != nil {
			t.Fatal(err)
		}
		h := node.Handler()
		servers[i].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				http.Error(w, `{"error":"down for the test"}`, http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
		servers[i].Start()
	}
	meta, err := partition.OpenPagedMeta(bytes.NewReader(f.img), int64(len(f.img)))
	if err != nil {
		t.Fatal(err)
	}
	client, err := cluster.NewClient(m, 4, cluster.ClientOptions{Timeout: 10 * time.Second, FailCooldown: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	router, err := partition.NewRemote(meta, cluster.RemoteCells(client, meta))
	if err != nil {
		t.Fatal(err)
	}
	f.backends = append(f.backends, labelBackend{"remote", router, func(on bool) {
		down.Store(on)
		if !on {
			time.Sleep(5 * time.Millisecond) // past the 1 ms fail cooldown
		}
	}})
	return f
}

// transcript answers a fixed kNN + range + distance mix on ix and renders
// every reported id with its exact distance as a float64 bit pattern, so two
// transcripts are equal iff the answers are bit-identical. raw additionally
// renders the loose intervals and step counts, which a router (refining a
// remote pair straight to exact) and an in-process engine (tightening step by
// step) legitimately disagree on: raw transcripts compare one index with
// itself.
//
// A failed query renders its error into the transcript (and so never equals
// a good one) instead of failing the test from what may be a worker
// goroutine.
func (f *labelFixture) transcript(ix *partition.Sharded, q graph.VertexID, raw bool) string {
	var sb strings.Builder
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
		iv := ix.DistanceIntervalCtx(qc, q, dst)
		fmt.Fprintf(&sb, "dist(%d)=%x in [%x,%x]\n", dst, math.Float64bits(ix.DistanceCtx(qc, q, dst)),
			math.Float64bits(iv.Lo), math.Float64bits(iv.Hi))
	}
	if err := qc.Err(); err != nil {
		fmt.Fprintf(&sb, "query %d FAILED: %v\n", q, err)
	}
	return sb.String()
}

func (f *labelFixture) queries() []graph.VertexID {
	n := f.g.NumVertices()
	var qs []graph.VertexID
	for i := 0; i < 12; i++ {
		qs = append(qs, graph.VertexID((i*n/12+i)%n))
	}
	return qs
}

// tableless answers q on an index opened for this one query: no row it reads
// was left behind by an earlier query.
func (f *labelFixture) tableless(t *testing.T, q graph.VertexID, raw bool) string {
	t.Helper()
	got := f.transcript(f.open(t, bytes.NewReader(f.img)), q, raw)
	if strings.Contains(got, "FAILED") {
		t.Fatalf("reference query failed:\n%s", got)
	}
	return got
}

// TestLabelTableBitIdentical: a cold table, a warm table and no table carried
// between queries give the same ids and the same float64 bits for kNN,
// incremental kNN, range, distance and the zero-refinement interval —
// sequentially, and from 8 goroutines sharing the index (run under -race in
// CI). In process the loose intervals and step counts agree too.
func TestLabelTableBitIdentical(t *testing.T) {
	f := newLabelFixture(t)
	want, wantRaw := make(map[graph.VertexID]string), make(map[graph.VertexID]string)
	for _, q := range f.queries() {
		want[q], wantRaw[q] = f.tableless(t, q, false), f.tableless(t, q, true)
	}
	for _, b := range f.backends {
		t.Run(b.name, func(t *testing.T) {
			cold := make(map[graph.VertexID]string)
			for _, pass := range []string{"cold", "warm"} {
				hits0 := b.ix.LabelStats().Hits
				for _, q := range f.queries() {
					if got := f.transcript(b.ix, q, false); got != want[q] {
						t.Fatalf("%s table, query %d: diverges from the table-less answers\n--- table-less\n%s--- got\n%s", pass, q, want[q], got)
					}
					// Between the passes even the loose intervals and the step
					// counts must agree: a hit hands the search the same bits.
					raw := f.transcript(b.ix, q, true)
					if pass == "cold" {
						cold[q] = raw
					} else if raw != cold[q] {
						t.Fatalf("query %d: warm table diverges from cold\n--- cold\n%s--- warm\n%s", q, cold[q], raw)
					}
					if b.name == "inproc" && raw != wantRaw[q] {
						t.Fatalf("%s table, query %d: search diverges from the table-less one\n--- table-less\n%s--- got\n%s", pass, q, wantRaw[q], raw)
					}
				}
				if pass == "warm" && b.ix.LabelStats().Hits == hits0 {
					t.Fatal("warm pass never hit the table")
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
						if got := f.transcript(b.ix, q, false); got != want[q] {
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
		})
	}
}

// TestLabelTableBound: asking for the rows of every vertex in both directions
// — far more rows than the bound — never grows any cell's table past
// LabelRowsPerCell, keeps all tables together within the closure's footprint,
// keeps the gauge equal to the rows actually held, and a row that survived is
// still the row a fresh computation gives.
func TestLabelTableBound(t *testing.T) {
	f := newLabelFixture(t)
	n := f.g.NumVertices()
	for _, b := range f.backends {
		t.Run(b.name, func(t *testing.T) {
			st := b.ix.Stats()
			limit := partition.LabelRowsPerCell(st.BoundaryVertices)
			if 2*n <= 4*limit {
				t.Fatalf("fixture too small: %d rows to ask for, tables hold %d", 2*n, 4*limit)
			}
			// A fixed partner per cell, in the next cell over: the interval
			// (v, w) reads v's outbound row and (w, v) its inbound one.
			var partner [4]graph.VertexID
			for v := n - 1; v >= 0; v-- {
				partner[(b.ix.CellOf(graph.VertexID(v))+3)%4] = graph.VertexID(v)
			}
			for v := 0; v < n; v++ {
				u, w := graph.VertexID(v), partner[b.ix.CellOf(graph.VertexID(v))]
				qc := core.NewQueryContext()
				b.ix.DistanceIntervalCtx(qc, u, w)
				b.ix.DistanceIntervalCtx(qc, w, u)
				if qc.Failed() {
					t.Fatalf("rows of vertex %d: %v", v, qc.Err())
				}
				var held, heldBytes int64
				for c, rows := range b.ix.LabelRowCounts() {
					if rows > limit {
						t.Fatalf("after vertex %d: cell %d holds %d rows, bound %d", v, c, rows, limit)
					}
					lo, hi := b.ix.BoundaryRows(c)
					held += int64(rows)
					heldBytes += int64(rows) * int64(hi-lo) * 16
				}
				if heldBytes > st.ClosureBytes {
					t.Fatalf("after vertex %d: tables hold %d interval bytes, closure is %d", v, heldBytes, st.ClosureBytes)
				}
				if gauge := b.ix.LabelStats().Rows; gauge != held {
					t.Fatalf("after vertex %d: row gauge %d, tables hold %d rows", v, gauge, held)
				}
			}
			if held := b.ix.LabelStats().Rows; held != int64(4*limit) {
				t.Fatalf("tables hold %d rows after the scan, want them full at %d", held, 4*limit)
			}
			fresh := f.open(t, bytes.NewReader(f.img))
			hits0 := b.ix.LabelStats().Hits
			for v := 0; v < n; v++ {
				u, w := graph.VertexID(v), partner[b.ix.CellOf(graph.VertexID(v))]
				qc := core.NewQueryContext()
				if got, want := b.ix.DistanceIntervalCtx(qc, u, w), fresh.DistanceIntervalCtx(qc, u, w); got != want {
					t.Fatalf("interval(%d,%d): %v from the full tables, %v fresh", u, w, got, want)
				}
			}
			if b.ix.LabelStats().Hits == hits0 {
				t.Fatal("the re-scan never read a surviving row")
			}
		})
	}
}

// TestLabelTableSkipsFailedFills: while every fill fails — the disk gone in
// process, every replica answering 503 remote — queries fail and nothing
// enters the tables: the loose stand-in intervals a failed lookup returns
// must never be remembered. Once the fault clears the next answers are exact
// again.
func TestLabelTableSkipsFailedFills(t *testing.T) {
	f := newLabelFixture(t)
	q := f.queries()[3]
	want := f.tableless(t, q, false)
	for _, b := range f.backends {
		t.Run(b.name, func(t *testing.T) {
			b.fault(true)
			qc := core.NewQueryContext()
			res := knn.SearchSpec(b.ix, qc, f.objs, q, knn.UnboundedSpec(10, knn.VariantKNN))
			if res.Err == nil && qc.Err() == nil {
				t.Fatal("kNN succeeded with every fill failing")
			}
			n := f.g.NumVertices()
			for v := 0; v < n; v += 7 { // rows for many destinations, all failing
				if b.ix.CellOf(graph.VertexID(v)) == b.ix.CellOf(q) {
					continue // may be one direct lookup on a self-contained cell
				}
				qc := core.NewQueryContext()
				b.ix.DistanceIntervalCtx(qc, q, graph.VertexID(v))
				if !qc.Failed() {
					t.Fatalf("interval(%d,%d) did not fail", q, v)
				}
			}
			if st := b.ix.LabelStats(); st.Rows != 0 || st.Misses == 0 {
				t.Fatalf("after failed fills only: row gauge %d, %d misses", st.Rows, st.Misses)
			}
			for c, rows := range b.ix.LabelRowCounts() {
				if rows != 0 {
					t.Fatalf("cell %d holds %d rows after failed fills only", c, rows)
				}
			}

			b.fault(false)
			if got := f.transcript(b.ix, q, false); got != want {
				t.Fatalf("after recovery: diverges from the table-less answers\n--- table-less\n%s--- got\n%s", want, got)
			}
			if b.ix.LabelStats().Rows == 0 {
				t.Fatal("recovered queries stored no rows")
			}
		})
	}
}
