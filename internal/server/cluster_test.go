package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"silc"
	"silc/internal/graph"
	"silc/internal/sssp"
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
	built, err := silc.Build(net, silc.BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.silcspg")
	if _, err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var objects []silc.VertexID
	for v := 0; v < net.NumVertices(); v += 20 {
		objects = append(objects, silc.VertexID(v))
	}
	config := func(eng *silc.Engine) Config {
		objs, err := silc.NewObjectSet(eng.Network(), objects)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Engine: eng, Objects: objs, MaxK: 1000, MaxBatch: 10000}
	}

	// Node addresses go into the manifest the nodes are built from: start
	// the listeners first, then hand them their handlers.
	m := &silc.ClusterManifest{Index: path}
	nodes := map[string]*httptest.Server{}
	for name, cells := range map[string][]int{"node-a": {0, 1}, "node-b": {2, 3}} {
		nodes[name] = httptest.NewServer(nil)
		defer nodes[name].Close()
		m.Nodes = append(m.Nodes, silc.ClusterNodeSpec{Name: name, Addr: nodes[name].URL, Cells: cells})
	}
	nodeServers := map[string]*Server{}
	for name, ts := range nodes {
		ix, err := silc.OpenEngine(path, nil, silc.BuildOptions{CacheFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		node, err := silc.NewClusterNode(ix, m, name)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		nodeServers[name] = New(Config{Node: node})
		ts.Config.Handler = nodeServers[name].Handler()
	}
	router, err := silc.OpenClusterRouter(path, m, silc.ClusterRouterOptions{HTTPClient: nodes["node-a"].Client()})
	if err != nil {
		t.Fatal(err)
	}
	rc := config(router.Engine())
	rc.Aux = router.Registry()
	routerServer := New(rc)
	routerTS := httptest.NewServer(routerServer.Handler())
	defer routerTS.Close()
	mono, err := silc.OpenEngine(path, nil, silc.BuildOptions{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Close()
	monoTS := httptest.NewServer(New(config(mono)).Handler())
	defer monoTS.Close()

	get := func(ts *httptest.Server, target string) []byte {
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
	for _, q := range []int{0, 97, 555, 1203, net.NumVertices() - 1} {
		for _, target := range []string{
			fmt.Sprintf("/knn?q=%d&k=5&exact=1", q),
			fmt.Sprintf("/range?q=%d&radius=0.25&exact=1", q),
		} {
			want, got := canonical(t, get(monoTS, target)), canonical(t, get(routerTS, target))
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
				if err := json.Unmarshal(get(ts, fmt.Sprintf("/distance?src=%d&dst=%d&eps=%g", q, dst, eps)), &reply); err != nil {
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
				if err := json.Unmarshal(get(ts, fmt.Sprintf("/range?q=%d&radius=%g&eps=%g", q, radius, eps)), &reply); err != nil {
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
		for _, v := range metricValues(t, get(routerTS, "/metrics"), "silc_cluster_rpcs_total") {
			total += v
		}
		return total
	}
	queries := []int{3, 211, 419, 640, 888, 1010, 1234, 1400}
	for _, q := range queries { // first touch fills the router's label table
		get(routerTS, fmt.Sprintf("/knn?q=%d&k=10&exact=1", q))
	}
	before := rpcs()
	for _, q := range queries {
		get(routerTS, fmt.Sprintf("/knn?q=%d&k=10&exact=1", q))
	}
	perKNN := (rpcs() - before) / float64(len(queries))
	t.Logf("%.2f RPCs per warm kNN", perKNN)
	if perKNN <= 0 || perKNN > 7 {
		t.Errorf("router spent %.1f RPCs per warm kNN, budget 7", perKNN)
	}

	for name, ts := range nodes {
		metrics := get(ts, "/metrics")
		for _, family := range []string{"silcnode_rpcs_total", "silcnode_cell_rpcs_total", "silcnode_refinements_total", "silc_store_page_reads_total"} {
			if len(metricValues(t, metrics, family)) == 0 {
				t.Errorf("%s /metrics: no %s", name, family)
			}
		}
	}
	metrics := get(routerTS, "/metrics")
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
