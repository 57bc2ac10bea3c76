package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"silc"
	"silc/internal/graph"
	"silc/internal/sssp"
	"silc/internal/testkit"
)

// TestRouterServerMatchesStandalone is the multi-process cluster smoke
// (scripts/cluster_smoke.sh) in one process: two node servers splitting a
// four-cell sharded image, a router server over them, and a standalone
// server over the same file. Router answers are byte-identical to the
// standalone ones once per-query stats are dropped, ε = 0.1 distances and
// ranges from both meet their (1+ε) certificates against Dijkstra, a warm
// k=10 kNN stays within the router's RPC budget, and every process exports
// the metric families the smoke greps for.
func TestRouterServerMatchesStandalone(t *testing.T) {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 40, Cols: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var objects []silc.VertexID
	for v := 0; v < net.NumVertices(); v += 20 {
		objects = append(objects, silc.VertexID(v))
	}
	cl := startCluster(t, net, objects)
	path, nodes, nodeServers := cl.path, cl.nodes, cl.nodeServers
	routerServer, routerTS := cl.router, cl.routerTS
	mono, err := silc.OpenEngine(path, nil, silc.BuildOptions{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Close()
	monoTS := httptest.NewServer(New(clusterConfig(t, mono, objects)).Handler())
	defer monoTS.Close()

	for _, q := range []int{0, 97, 555, 1203, net.NumVertices() - 1} {
		for _, target := range []string{
			fmt.Sprintf("/knn?q=%d&k=5&exact=1", q),
			fmt.Sprintf("/range?q=%d&radius=0.25&exact=1", q),
		} {
			want, got := canonical(t, getOK(t, monoTS, target)), canonical(t, getOK(t, routerTS, target))
			if !bytes.Equal(got, want) {
				t.Errorf("%s: router answered\n%s\nstandalone\n%s", target, got, want)
			}
		}
	}

	// ε = 0.1 through the router and the standalone server alike: every
	// /distance d satisfies d ≤ Dijkstra ≤ (1+ε)·d, and every /range answer
	// at radius r holds every object within r and none beyond (1+ε)·r.
	const eps = 0.1
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 40, Cols: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 97, 555, 1203, net.NumVertices() - 1} {
		truth := sssp.Dijkstra(g, graph.VertexID(q)).Dist
		for name, ts := range map[string]*httptest.Server{"router": routerTS, "standalone": monoTS} {
			for dst := 0; dst < net.NumVertices(); dst += 61 {
				var reply struct {
					Distance float64 `json:"distance"`
				}
				if err := json.Unmarshal(getOK(t, ts, fmt.Sprintf("/distance?src=%d&dst=%d&eps=%g", q, dst, eps)), &reply); err != nil {
					t.Fatal(err)
				}
				want := truth[dst]
				if tol := 1e-6 * (1 + want); reply.Distance > want+tol || want > (1+eps)*reply.Distance+tol {
					t.Errorf("%s: /distance %d→%d at ε=%g = %v, Dijkstra %v", name, q, dst, eps, reply.Distance, want)
				}
			}
			for _, radius := range []float64{0, 0.2, 0.45} {
				var reply struct {
					Neighbors []struct {
						Vertex int `json:"vertex"`
					} `json:"neighbors"`
				}
				if err := json.Unmarshal(getOK(t, ts, fmt.Sprintf("/range?q=%d&radius=%g&eps=%g", q, radius, eps)), &reply); err != nil {
					t.Fatal(err)
				}
				in := map[int]bool{}
				for _, nb := range reply.Neighbors {
					in[nb.Vertex] = true
				}
				for _, v := range objects {
					d := truth[v]
					if tol := 1e-6 * (1 + d); d <= radius-tol && !in[int(v)] || d > (1+eps)*radius+tol && in[int(v)] {
						t.Errorf("%s: /range q=%d radius=%g ε=%g: object at vertex %d (distance %v) reported %v", name, q, radius, eps, v, d, in[int(v)])
					}
				}
			}
		}
	}

	rpcs := func() (total float64) {
		for _, v := range metricValues(t, getOK(t, routerTS, "/metrics"), "silc_cluster_rpcs_total") {
			total += v
		}
		return total
	}
	queries := []int{3, 211, 419, 640, 888, 1010, 1234, 1400}
	for _, q := range queries { // first touch fills the router's label table
		getOK(t, routerTS, fmt.Sprintf("/knn?q=%d&k=10&exact=1", q))
	}
	before := rpcs()
	for _, q := range queries {
		getOK(t, routerTS, fmt.Sprintf("/knn?q=%d&k=10&exact=1", q))
	}
	perKNN := (rpcs() - before) / float64(len(queries))
	t.Logf("%.2f RPCs per warm kNN", perKNN)
	if perKNN <= 0 || perKNN > 7 {
		t.Errorf("router spent %.1f RPCs per warm kNN, budget 7", perKNN)
	}

	for name, ts := range nodes {
		metrics := getOK(t, ts, "/metrics")
		for _, family := range []string{"silcnode_rpcs_total", "silcnode_cell_rpcs_total", "silcnode_refinements_total", "silc_store_page_reads_total"} {
			if len(metricValues(t, metrics, family)) == 0 {
				t.Errorf("%s /metrics: no %s", name, family)
			}
		}
	}
	metrics := getOK(t, routerTS, "/metrics")
	for _, family := range []string{"silc_cluster_rpcs_total", "silc_cluster_cell_rpcs_total", "silcserve_requests_total",
		"silc_partition_label_hits_total", "silc_partition_label_misses_total", "silc_partition_label_rows",
		"silc_partition_race_hinted_total", "silc_partition_race_used_total"} {
		if len(metricValues(t, metrics, family)) == 0 {
			t.Errorf("router /metrics: no %s", family)
		}
	}

	// One drain path: a draining node and a draining router both fail /readyz.
	for _, d := range []struct {
		s  *Server
		ts *httptest.Server
	}{{nodeServers["node-a"], nodes["node-a"]}, {routerServer, routerTS}} {
		d.s.startDrain()
		resp, err := d.ts.Client().Get(d.ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s/readyz while draining: status %d, want 503", d.ts.URL, resp.StatusCode)
		}
	}
}

// getOK GETs target from ts and returns the body, failing the test unless
// the status is 200.
func getOK(t *testing.T, ts *httptest.Server, target string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + target)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", target, resp.StatusCode, body.Bytes())
	}
	return body.Bytes()
}

// TestClusterMetricNamesPinned checks the series shapes (family names and
// label keys, not values) of a cluster node's and the router's /metrics,
// after a little traffic through the router, against lists — what
// cmd/silcserve's TestServerMetricNamesPinned does for a standalone server.
// Every change to a cluster process's metric surface is then made on
// purpose and shows in this file.
func TestClusterMetricNamesPinned(t *testing.T) {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var objects []silc.VertexID
	for v := 0; v < net.NumVertices(); v += 10 {
		objects = append(objects, silc.VertexID(v))
	}
	cl := startCluster(t, net, objects)
	last := net.NumVertices() - 1
	for _, target := range []string{
		"/knn?q=3&k=4",
		fmt.Sprintf("/distance?src=0&dst=%d", last),
		fmt.Sprintf("/path?src=0&dst=%d", last),
		"/range?q=5&radius=0.3",
		"/browse?src=2&n=3",
	} {
		getOK(t, cl.routerTS, target)
	}
	for _, c := range []struct {
		name string
		ts   *httptest.Server
		want []string
	}{
		{"node-a", cl.nodes["node-a"], nodeMetricNames},
		{"node-b", cl.nodes["node-b"], nodeMetricNames},
		{"router", cl.routerTS, routerMetricNames},
	} {
		got := testkit.MetricNames(string(getOK(t, c.ts, "/metrics")))
		if !slices.Equal(got, c.want) {
			var list strings.Builder
			for _, n := range got {
				fmt.Fprintf(&list, "\t%q,\n", n)
			}
			t.Errorf("the %s /metrics series changed; if that is intended, pin the new list:\n%s", c.name, list.String())
		}
	}
}

// nodeMetricNames are the series of a cluster node's /metrics.
var nodeMetricNames = []string{
	"silc_diskio_pool_capacity_pages",
	"silc_diskio_pool_evictions_total",
	"silc_diskio_pool_hits_total",
	"silc_diskio_pool_misses_total",
	"silc_diskio_pool_resident_pages",
	"silc_engine_blocks_decoded_total",
	"silc_engine_inflight_queries",
	"silc_engine_page_hits_total",
	"silc_engine_page_misses_total",
	"silc_engine_page_reads_total",
	"silc_engine_pool_evictions_total",
	"silc_engine_queries_total{op}",
	"silc_engine_query_seconds_bucket{op,le}",
	"silc_engine_query_seconds_count{op}",
	"silc_engine_query_seconds_sum{op}",
	"silc_knn_filter_seconds_total",
	"silc_knn_heap_pushes_total",
	"silc_knn_lookups_total",
	"silc_knn_refine_seconds_total",
	"silc_knn_refinements_total",
	"silc_partition_cross_cell_refiners_total",
	"silc_partition_gateway_routes_total",
	"silc_partition_label_hits_total",
	"silc_partition_label_misses_total",
	"silc_partition_label_rows",
	"silc_partition_race_hinted_total",
	"silc_partition_race_used_total",
	"silc_store_blocks_decoded_total{store,source}",
	"silc_store_crc_seconds_total{store,source}",
	"silc_store_page_reads_total{store,source}",
	"silc_store_read_bytes_total{store,source}",
	"silc_store_read_seconds_total{store,source}",
	"silcnode_cell_rpcs_total{cell}",
	"silcnode_draining{node}",
	"silcnode_refinements_total",
	"silcnode_rejected_total",
	"silcnode_rpc_errors_total{endpoint}",
	"silcnode_rpc_seconds_bucket{endpoint,le}",
	"silcnode_rpc_seconds_count{endpoint}",
	"silcnode_rpc_seconds_sum{endpoint}",
	"silcnode_rpcs_total{endpoint}",
}

// routerMetricNames are the series of a cluster router's /metrics.
var routerMetricNames = []string{
	"silc_cluster_call_failures_total",
	"silc_cluster_cell_rpcs_total{cell}",
	"silc_cluster_retries_total",
	"silc_cluster_rpc_bytes_total{endpoint,dir}",
	"silc_cluster_rpc_errors_total{endpoint}",
	"silc_cluster_rpc_seconds_bucket{endpoint,le}",
	"silc_cluster_rpc_seconds_count{endpoint}",
	"silc_cluster_rpc_seconds_sum{endpoint}",
	"silc_cluster_rpcs_total{endpoint}",
	"silc_diskio_pool_capacity_pages",
	"silc_diskio_pool_evictions_total",
	"silc_diskio_pool_hits_total",
	"silc_diskio_pool_misses_total",
	"silc_diskio_pool_resident_pages",
	"silc_engine_blocks_decoded_total",
	"silc_engine_inflight_queries",
	"silc_engine_page_hits_total",
	"silc_engine_page_misses_total",
	"silc_engine_page_reads_total",
	"silc_engine_pool_evictions_total",
	"silc_engine_queries_total{op}",
	"silc_engine_query_seconds_bucket{op,le}",
	"silc_engine_query_seconds_count{op}",
	"silc_engine_query_seconds_sum{op}",
	"silc_knn_filter_seconds_total",
	"silc_knn_heap_pushes_total",
	"silc_knn_lookups_total",
	"silc_knn_refine_seconds_total",
	"silc_knn_refinements_total",
	"silc_partition_cross_cell_refiners_total",
	"silc_partition_gateway_routes_total",
	"silc_partition_label_hits_total",
	"silc_partition_label_misses_total",
	"silc_partition_label_rows",
	"silc_partition_race_hinted_total",
	"silc_partition_race_used_total",
	"silcserve_inflight_requests",
	"silcserve_request_seconds_bucket{endpoint,le}",
	"silcserve_request_seconds_count{endpoint}",
	"silcserve_request_seconds_sum{endpoint}",
	"silcserve_requests_total{endpoint}",
}

// clusterFixture is scripts/cluster_smoke.sh's deployment in one process:
// two node servers splitting a four-cell sharded image and a router server
// over them, each behind an httptest server.
type clusterFixture struct {
	path        string // the sharded image every process opens
	nodes       map[string]*httptest.Server
	nodeServers map[string]*Server
	router      *Server
	routerTS    *httptest.Server
}

// startCluster writes a four-cell image of net and starts the fixture over
// it; the router and standalone servers serve objects. Everything it starts
// stops when the test ends.
func startCluster(t *testing.T, net *silc.Network, objects []silc.VertexID) *clusterFixture {
	t.Helper()
	built, err := silc.Build(net, silc.BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl := &clusterFixture{
		path:        filepath.Join(t.TempDir(), "cluster.silcspg"),
		nodes:       map[string]*httptest.Server{},
		nodeServers: map[string]*Server{},
	}
	if _, err := built.WriteFile(cl.path); err != nil {
		t.Fatal(err)
	}
	// Node addresses go into the manifest the nodes are built from: start
	// the listeners first, then hand them their handlers.
	m := &silc.ClusterManifest{Index: cl.path}
	for name, cells := range map[string][]int{"node-a": {0, 1}, "node-b": {2, 3}} {
		cl.nodes[name] = httptest.NewServer(nil)
		t.Cleanup(cl.nodes[name].Close)
		m.Nodes = append(m.Nodes, silc.ClusterNodeSpec{Name: name, Addr: cl.nodes[name].URL, Cells: cells})
	}
	for name, ts := range cl.nodes {
		ix, err := silc.OpenEngine(cl.path, nil, silc.BuildOptions{CacheFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		node, err := silc.NewClusterNode(ix, m, name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		cl.nodeServers[name] = New(Config{Node: node})
		ts.Config.Handler = cl.nodeServers[name].Handler()
	}
	router, err := silc.OpenClusterRouter(cl.path, m, silc.ClusterRouterOptions{HTTPClient: cl.nodes["node-a"].Client()})
	if err != nil {
		t.Fatal(err)
	}
	rc := clusterConfig(t, router.Engine(), objects)
	rc.Aux = router.Registry()
	cl.router = New(rc)
	cl.routerTS = httptest.NewServer(cl.router.Handler())
	t.Cleanup(cl.routerTS.Close)
	return cl
}

// clusterConfig is the server configuration of a router or standalone
// server over eng, serving objects.
func clusterConfig(t *testing.T, eng *silc.Engine, objects []silc.VertexID) Config {
	t.Helper()
	objs, err := silc.NewObjectSet(eng.Network(), objects)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Engine: eng, Objects: objs, MaxK: 1000, MaxBatch: 10000}
}

// metricValues returns the values of every sample of family in a text
// exposition.
func metricValues(t *testing.T, exposition []byte, family string) []float64 {
	t.Helper()
	var values []float64
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if name, _, _ = strings.Cut(name, "{"); !ok || name != family {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%s sample %q: %v", family, sc.Text(), err)
		}
		values = append(values, v)
	}
	return values
}
