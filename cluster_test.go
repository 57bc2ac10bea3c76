package silc_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"silc"
)

// The cluster contract: a router fanning queries out to cell-owning nodes
// over the RPC surface answers bit-identically to the in-process engines,
// and a replica failure mid-stream is invisible to clients (zero failed
// queries) as long as every cell keeps at least one live owner.

// clusterHarness is one in-process cluster: two cell-owning nodes splitting
// the partitions, plus one full replica node, each behind an httptest
// server, and a router over all three.
type clusterHarness struct {
	router  *silc.ClusterRouter
	mono    *silc.Engine // in-RAM monolithic reference
	sharded *silc.Engine // in-process paged sharded reference (same file)
	servers map[string]*httptest.Server
	net     *silc.Network
}

func buildCluster(t *testing.T, opt silc.ClusterRouterOptions) *clusterHarness {
	t.Helper()
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 13, Cols: 13, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := silc.Build(net, silc.BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.silcspg")
	if _, err := sx.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ref, err := silc.OpenEngine(path, nil, silc.BuildOptions{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })

	h := &clusterHarness{
		mono:    ix,
		sharded: ref,
		servers: make(map[string]*httptest.Server),
		net:     net,
	}
	// Node addresses must exist before the manifest, but the manifest must
	// exist before the nodes: start the servers first, then bind handlers.
	specs := []struct {
		name  string
		cells []int
	}{
		{"node-a", []int{0, 1}},
		{"node-b", []int{2, 3}},
		{"node-c", []int{0, 1, 2, 3}}, // full replica
	}
	m := &silc.ClusterManifest{Index: path}
	for _, spec := range specs {
		srv := httptest.NewServer(nil)
		t.Cleanup(srv.Close)
		h.servers[spec.name] = srv
		m.Nodes = append(m.Nodes, silc.ClusterNodeSpec{Name: spec.name, Addr: srv.URL, Cells: spec.cells})
	}
	for _, spec := range specs {
		nodeIx, err := silc.OpenEngine(path, nil, silc.BuildOptions{CacheFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nodeIx.Close() })
		node, err := silc.NewClusterNode(nodeIx, m, spec.name)
		if err != nil {
			t.Fatal(err)
		}
		h.servers[spec.name].Config.Handler = node.Handler()
	}
	router, err := silc.OpenClusterRouter(path, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	h.router = router
	return h
}

func objectsEvery(t *testing.T, net *silc.Network, stride int) *silc.ObjectSet {
	t.Helper()
	var vs []silc.VertexID
	for v := 0; v < net.NumVertices(); v += stride {
		vs = append(vs, silc.VertexID(v))
	}
	objs, err := silc.NewObjectSet(net, vs)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

// TestClusterEquivalence: kNN, range, browse, and distance answers from the
// router must match the in-process engines — transcript-identical to the
// monolithic reference and bit-identical (== on float64) to the in-process
// sharded engine serving the very same paged file.
func TestClusterEquivalence(t *testing.T) {
	h := buildCluster(t, silc.ClusterRouterOptions{Timeout: 10 * time.Second})
	ctx := context.Background()
	if err := h.router.Ready(ctx); err != nil {
		t.Fatalf("router not ready: %v", err)
	}
	n := h.net.NumVertices()
	queries := []silc.VertexID{0, silc.VertexID(n / 3), silc.VertexID(n / 2), silc.VertexID(n - 1)}

	for _, q := range queries {
		monoT := queryAll(t, h.mono, objectsEvery(t, h.mono.Network(), 4), q)
		shardT := queryAll(t, h.sharded, objectsEvery(t, h.sharded.Network(), 4), q)
		clusterT := queryAll(t, h.router.Engine(), objectsEvery(t, h.router.Engine().Network(), 4), q)
		if clusterT != monoT {
			t.Fatalf("query %d: cluster transcript diverges from monolithic:\n--- mono\n%s--- cluster\n%s", q, monoT, clusterT)
		}
		if clusterT != shardT {
			t.Fatalf("query %d: cluster transcript diverges from in-process sharded:\n--- sharded\n%s--- cluster\n%s", q, shardT, clusterT)
		}
	}

	// Distances: the router runs the identical routing arithmetic over the
	// identical cell images, so the float64s must be equal to the last bit.
	for u := 0; u < n; u += 11 {
		v := (u*31 + n/2) % n
		want, err := h.sharded.Distance(ctx, silc.VertexID(u), silc.VertexID(v))
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.router.Engine().Distance(ctx, silc.VertexID(u), silc.VertexID(v))
		if err != nil {
			t.Fatal(err)
		}
		if got != want { // exact bit equality, not a tolerance
			t.Fatalf("distance(%d,%d): cluster %v != in-process sharded %v", u, v, got, want)
		}
	}

	// Paths: router and in-process engine run one race over identical
	// candidates on identical cell images, so the vertex sequences are equal,
	// not only their costs.
	for u := 0; u < n; u += 29 {
		v := (u*17 + 3) % n
		want, err := h.sharded.ShortestPath(ctx, silc.VertexID(u), silc.VertexID(v))
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.router.Engine().ShortestPath(ctx, silc.VertexID(u), silc.VertexID(v))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil || !slices.Equal(got, want) {
			t.Fatalf("path(%d,%d): cluster %v, in-process sharded %v", u, v, got, want)
		}
	}

	// The router fanned real RPCs out, and the per-cell load signal saw them.
	if routerSeries(t, h.router, "silc_cluster_cell_rpcs_total{") == 0 {
		t.Fatal("router reported zero per-cell RPCs after a full query mix")
	}
	var buf strings.Builder
	if err := h.router.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"silc_cluster_rpcs_total", "silc_cluster_cell_rpcs_total",
		"silc_partition_label_hits_total", "silc_partition_label_misses_total", "silc_partition_label_rows",
		"silc_partition_race_hinted_total", "silc_partition_race_used_total"} {
		if !strings.Contains(buf.String(), family) {
			t.Fatalf("router metrics missing family %s", family)
		}
	}
}

// routerSeries sums the router's metric series whose name (and label prefix)
// starts with prefix.
func routerSeries(t *testing.T, r *silc.ClusterRouter, prefix string) float64 {
	t.Helper()
	var buf strings.Builder
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if series, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(series, prefix) {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			total += v
		}
	}
	return total
}

// TestClusterExactRPCBudget: what a client that asks for exact distances —
// every benchmark read — costs in RPCs through the real Engine, whose
// exactify announces the neighbours it is about to refine. A warm k=10 kNN or
// range query stays within the budgets internal/cluster holds the bare
// searches to; a router that raced once per refined neighbour would not. The
// exported race-batch counters move, and most of what they raced was used.
func TestClusterExactRPCBudget(t *testing.T) {
	const knnBudget, rangeBudget = 7, 5
	h := buildCluster(t, silc.ClusterRouterOptions{Timeout: 10 * time.Second})
	ctx := context.Background()
	eng := h.router.Engine()
	objs := objectsEvery(t, eng.Network(), 4)
	refObjs := objectsEvery(t, h.sharded.Network(), 4)
	n := h.net.NumVertices()
	rpcs := func() float64 { return routerSeries(t, h.router, "silc_cluster_rpcs_total{") }
	var knnTotal, rangeTotal float64
	const queries = 12
	for pass := 0; pass < 2; pass++ { // the first pass fills the label rows
		for i := 0; i < queries; i++ {
			q := silc.VertexID((i*n/queries + i) % n)
			before := rpcs()
			res, err := eng.Query(ctx, objs, q, 10, silc.WithExactDistances())
			if err != nil {
				t.Fatal(err)
			}
			mid := rpcs()
			rng, err := eng.WithinDistance(ctx, objs, q, 0.25, silc.WithExactDistances())
			if err != nil {
				t.Fatal(err)
			}
			k, r := mid-before, rpcs()-mid
			if pass == 0 {
				continue
			}
			if k > knnBudget || r > rangeBudget {
				t.Errorf("query %d: exact kNN cost %v RPCs (budget %d), exact range %v (budget %d)", q, k, knnBudget, r, rangeBudget)
			}
			knnTotal, rangeTotal = knnTotal+k, rangeTotal+r
			want, err := h.sharded.Query(ctx, refObjs, q, 10, silc.WithExactDistances())
			if err != nil {
				t.Fatal(err)
			}
			for j, nb := range res.Neighbors {
				if w := want.Neighbors[j]; !nb.Exact || nb.ID != w.ID || nb.Dist != w.Dist {
					t.Fatalf("query %d neighbour %d: router %+v, in process %+v", q, j, nb, w)
				}
			}
			for _, nb := range rng.Neighbors {
				if !nb.Exact {
					t.Fatalf("query %d: range neighbour %+v not exact", q, nb)
				}
			}
		}
	}
	hinted := routerSeries(t, h.router, "silc_partition_race_hinted_total")
	used := routerSeries(t, h.router, "silc_partition_race_used_total")
	if hinted == 0 || used > hinted || used < hinted/2 {
		t.Fatalf("race batches raced %v destinations, %v of them used", hinted, used)
	}
	t.Logf("warm exact queries: %.1f RPCs per kNN, %.1f per range; %v destinations raced in batches, %v used",
		knnTotal/queries, rangeTotal/queries, hinted, used)
}

// TestClusterReplicaFailover: with node-c replicating every cell, killing
// it in the middle of a query stream must cause zero client-visible
// failures — the router retries onto the surviving owners — and the
// answers must stay bit-identical throughout.
func TestClusterReplicaFailover(t *testing.T) {
	h := buildCluster(t, silc.ClusterRouterOptions{
		Timeout:      5 * time.Second,
		FailCooldown: 50 * time.Millisecond,
	})
	ctx := context.Background()
	n := h.net.NumVertices()
	objs := objectsEvery(t, h.router.Engine().Network(), 4)
	refObjs := objectsEvery(t, h.sharded.Network(), 4)

	const workers = 4
	const perWorker = 12
	killAt := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 {
					once.Do(func() { close(killAt) })
				}
				q := silc.VertexID((w*57 + i*13) % n)
				res, err := h.router.Engine().Query(ctx, objs, q, 5, silc.WithExactDistances())
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, q, err)
					return
				}
				want, err := h.sharded.Query(ctx, refObjs, q, 5, silc.WithExactDistances())
				if err != nil {
					errs <- err
					return
				}
				for j := range res.Neighbors {
					if res.Neighbors[j].Dist != want.Neighbors[j].Dist {
						errs <- fmt.Errorf("worker %d query %d: neighbor %d dist %v != %v",
							w, q, j, res.Neighbors[j].Dist, want.Neighbors[j].Dist)
						return
					}
				}
			}
		}(w)
	}
	// Kill the replica mid-stream: in-flight connections die too, so the
	// failure is a hard one, not a graceful drain.
	go func() {
		<-killAt
		srv := h.servers["node-c"]
		srv.CloseClientConnections()
		srv.Close()
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err) // any entry here is a client-visible failure: the contract is zero
	}
}
