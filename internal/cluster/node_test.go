package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"silc/internal/cluster"
	"silc/internal/core"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/partition"
)

func buildNode(t *testing.T) (*partition.Sharded, *cluster.Node, *httptest.Server) {
	t.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 10, Cols: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := partition.Build(g, partition.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := &cluster.Manifest{Nodes: []cluster.NodeSpec{
		{Name: "a", Addr: "http://placeholder", Cells: []int{0, 1}},
		{Name: "b", Addr: "http://placeholder", Cells: []int{2, 3}},
	}}
	node, err := cluster.NewNode("a", m, s)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)
	return s, node, srv
}

// post sends req's frame to url and returns the reply and its body.
func post(t *testing.T, url string, req cluster.Message) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(cluster.EncodeFrame(req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestNodeOwnershipAndValidation: RPCs for owned cells answer with exactly
// the in-process arithmetic; unowned cells are 421s; bad vertex ids 400s.
func TestNodeOwnershipAndValidation(t *testing.T) {
	s, _, srv := buildNode(t)

	// Owned cell: a race with one zero-offset candidate — the wire form of a
	// pair's exact distance — must equal the pair refined to exact in
	// process, and the intervals RPC must carry one row per boundary vertex.
	bs := s.BoundaryLocals(0)
	if len(bs) == 0 {
		t.Fatal("cell 0 has no boundary vertices")
	}
	cx := s.CellIndexAt(0)
	for _, b := range bs {
		resp, data := post(t, srv.URL+cluster.PathRace,
			&cluster.RaceReq{Cell: 0, Dsts: []uint32{uint32(b)}, Ns: []int32{1}, Offs: []uint64{cluster.Bits(0)}, Us: []uint32{0}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("race status %d: %s", resp.StatusCode, data)
		}
		var rr cluster.RaceResp
		if err := cluster.DecodeFrame(data, &rr); err != nil {
			t.Fatal(err)
		}
		r := cx.Refine(core.NewQueryContext(), 0, b)
		for r.Step() {
		}
		want := r.Interval().Lo // +Inf where the cell does not reach b
		if len(rr.Ds) != 1 || len(rr.Args) != 1 || cluster.Bits(want) != rr.Ds[0] {
			t.Fatalf("gateway %d: node says %v, in-process says %v", b, rr.Ds, want)
		}
	}
	resp, data := post(t, srv.URL+cluster.PathIntervals, &cluster.IntervalsReq{Cell: 0, V: 0, ToV: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("intervals status %d: %s", resp.StatusCode, data)
	}
	var ir cluster.IntervalsResp
	if err := cluster.DecodeFrame(data, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Los) != len(bs) || len(ir.His) != len(bs) {
		t.Fatalf("%d/%d interval bounds for %d rows", len(ir.Los), len(ir.His), len(bs))
	}

	// Unowned cell: 421 so the client can tell routing bugs from failures.
	resp, _ = post(t, srv.URL+cluster.PathInterval, &cluster.IntervalReq{Cell: 2, U: 0, V: 1})
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("unowned cell status %d, want 421", resp.StatusCode)
	}

	// Vertex out of the cell's local range: 400.
	nv := s.CellVertexCount(0)
	resp, _ = post(t, srv.URL+cluster.PathInterval, &cluster.IntervalReq{Cell: 0, U: uint32(nv), V: 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad vertex status %d, want 400", resp.StatusCode)
	}

	// Race candidate count mismatch: 400.
	resp, _ = post(t, srv.URL+cluster.PathRace, &cluster.RaceReq{Cell: 0, Dsts: []uint32{0}, Ns: []int32{1}, Offs: []uint64{0}, Us: nil})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched race status %d, want 400", resp.StatusCode)
	}
}

func TestNodeReadyzDraining(t *testing.T) {
	_, node, srv := buildNode(t)
	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz before drain: %d", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz: %d", got)
	}
	node.StartDrain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", got)
	}
	// Liveness and RPCs keep working while draining.
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz during drain: %d", got)
	}
	resp, _ := post(t, srv.URL+cluster.PathInterval, &cluster.IntervalReq{Cell: 0, U: 0, V: 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("RPC during drain: %d", resp.StatusCode)
	}
}

// TestNodeDeadlinePropagates: a client deadline expiring mid-RPC cancels
// the node-side computation (the query context is bound to the HTTP
// request's context) and surfaces as a failed attempt, not a hang.
func TestNodeDeadlinePropagates(t *testing.T) {
	_, _, srv := buildNode(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	body := cluster.EncodeFrame(&cluster.IntervalReq{Cell: 0, U: 0, V: 1})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+cluster.PathInterval, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("request with expired deadline succeeded")
	}
}

// TestNodeIntervalBatch: the batch form of the interval RPC answers each
// vertex with exactly what the single form returns and each quadtree cell
// with the cell index's own region lower bound, and rejects malformed
// batches with 400.
func TestNodeIntervalBatch(t *testing.T) {
	s, _, srv := buildNode(t)
	nv := uint32(s.CellVertexCount(0))
	vs := []uint32{0, nv / 2, nv - 1, 0}
	cells := []geom.Cell{geom.RootCell(), geom.RootCell().Child(0).Child(0), geom.RootCell().Child(3).Child(2),
		{Code: 0x15 << 26, Level: 5}, {Code: 12345, Level: geom.MaxLevel}}
	req := &cluster.IntervalReq{Cell: 0, U: 1, Vs: vs}
	for _, c := range cells {
		req.Cells = append(req.Cells, cluster.CellWord(c))
	}
	resp, data := post(t, srv.URL+cluster.PathInterval, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var br cluster.IntervalResp
	if err := cluster.DecodeFrame(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Los) != len(vs) || len(br.His) != len(vs) || len(br.Lbs) != len(cells) {
		t.Fatalf("batch reply has %d/%d intervals and %d bounds for %d vertices and %d cells",
			len(br.Los), len(br.His), len(br.Lbs), len(vs), len(cells))
	}
	for i, v := range vs {
		_, data := post(t, srv.URL+cluster.PathInterval, &cluster.IntervalReq{Cell: 0, U: 1, V: v})
		var one cluster.IntervalResp
		if err := cluster.DecodeFrame(data, &one); err != nil {
			t.Fatal(err)
		}
		if br.Los[i] != one.Lo || br.His[i] != one.Hi {
			t.Fatalf("vertex %d: batch [%x,%x], single [%x,%x]", v, br.Los[i], br.His[i], one.Lo, one.Hi)
		}
	}
	cx := s.CellIndexAt(0)
	for i, c := range cells {
		want := cx.RegionLowerBoundCtx(core.NewQueryContext(), 1, c)
		if br.Lbs[i] != cluster.Bits(want) {
			t.Fatalf("cell %v: batch %x, in process %x", c, br.Lbs[i], cluster.Bits(want))
		}
	}

	for name, bad := range map[string]*cluster.IntervalReq{
		"vertex out of range": {Cell: 0, U: 0, Vs: []uint32{nv}},
		"level past the grid": {Cell: 0, U: 0, Cells: []uint64{geom.MaxLevel + 1}},
		"code past the grid":  {Cell: 0, U: 0, Cells: []uint64{1 << 32 << 8}},
		"misaligned code":     {Cell: 0, U: 0, Cells: []uint64{cluster.CellWord(geom.Cell{Code: 1, Level: 15})}},
	} {
		if resp, _ := post(t, srv.URL+cluster.PathInterval, bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestNodeRaceBatch: the race RPC answers every destination of a batch with
// exactly what RaceRoutes returns for that destination alone — value and
// winner, a destination without candidates included — and rejects batches
// whose columns do not fit together with 400.
func TestNodeRaceBatch(t *testing.T) {
	s, _, srv := buildNode(t)
	cx := s.CellIndexAt(0)
	bs := s.BoundaryLocals(0)
	nv := uint32(s.CellVertexCount(0))
	if len(bs) < 3 {
		t.Fatalf("cell 0 has %d boundary vertices", len(bs))
	}
	// Destination i races candidates[i]; offsets make a late candidate win
	// now and then, and one is +Inf (never run).
	dsts := []uint32{1, nv / 2, nv - 1, 1, nv / 3}
	candidates := [][]uint32{{0}, {uint32(bs[0]), uint32(bs[1]), uint32(bs[2])}, {}, {uint32(bs[2]), 0, uint32(bs[1])}, {uint32(bs[1]), uint32(bs[0])}}
	offsets := [][]float64{{0}, {0.3, 0.1, 0.2}, {}, {0.05, 0, math.Inf(1)}, {math.Inf(1), 0.25}}
	req := &cluster.RaceReq{Cell: 0, Dsts: dsts}
	for i, us := range candidates {
		req.Ns = append(req.Ns, int32(len(us)))
		req.Us = append(req.Us, us...)
		for _, off := range offsets[i] {
			req.Offs = append(req.Offs, cluster.Bits(off))
		}
	}
	resp, data := post(t, srv.URL+cluster.PathRace, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var rr cluster.RaceResp
	if err := cluster.DecodeFrame(data, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Ds) != len(dsts) || len(rr.Args) != len(dsts) {
		t.Fatalf("batch reply has %d distances and %d winners for %d destinations", len(rr.Ds), len(rr.Args), len(dsts))
	}
	for i, dst := range dsts {
		us := make([]graph.VertexID, len(candidates[i]))
		for j, u := range candidates[i] {
			us[j] = graph.VertexID(u)
		}
		d, arg := cx.RaceRoutes(core.NewQueryContext(), graph.VertexID(dst), offsets[i], us)
		if rr.Ds[i] != cluster.Bits(d) || int(rr.Args[i]) != arg {
			t.Fatalf("destination %d (%d): batch says %v by %d, RaceRoutes %v by %d",
				i, dst, cluster.FromBits(rr.Ds[i]), rr.Args[i], d, arg)
		}
	}
	if rr.Args[2] != -1 || !math.IsInf(cluster.FromBits(rr.Ds[2]), 1) {
		t.Fatalf("a destination without candidates answered %v by %d", cluster.FromBits(rr.Ds[2]), rr.Args[2])
	}

	for name, bad := range map[string]*cluster.RaceReq{
		"ragged counts":             {Cell: 0, Dsts: []uint32{1, 2}, Ns: []int32{1}, Offs: []uint64{0}, Us: []uint32{0}},
		"destination outside":       {Cell: 0, Dsts: []uint32{nv}, Ns: []int32{1}, Offs: []uint64{0}, Us: []uint32{0}},
		"candidate outside":         {Cell: 0, Dsts: []uint32{1}, Ns: []int32{1}, Offs: []uint64{0}, Us: []uint32{nv}},
		"counts short of the lists": {Cell: 0, Dsts: []uint32{1, 2}, Ns: []int32{1, 0}, Offs: []uint64{0, 0}, Us: []uint32{0, 0}},
		"counts past the lists":     {Cell: 0, Dsts: []uint32{1, 2}, Ns: []int32{1, 2}, Offs: []uint64{0, 0}, Us: []uint32{0, 0}},
		"negative count":            {Cell: 0, Dsts: []uint32{1, 2}, Ns: []int32{-1, 3}, Offs: []uint64{0, 0}, Us: []uint32{0, 0}},
	} {
		if resp, _ := post(t, srv.URL+cluster.PathRace, bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// metricValue scrapes one unlabelled series from a server's /metrics.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		if value, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no series %s in /metrics", name)
	return 0
}

// TestNodeRefinementsCounter: silcnode_refinements_total moves by exactly
// the refinement steps of the requests the node served. A concurrent burst
// of race batches (and interval lookups, which refine nothing) is replayed
// in process, request by request on fresh contexts, and the steps those
// replays count add up to the counter's delta.
func TestNodeRefinementsCounter(t *testing.T) {
	s, _, srv := buildNode(t)
	rng := rand.New(rand.NewSource(11))
	var races [][]byte
	var want int64 // the refinement steps of the burst's races, in process
	for i := 0; i < 32; i++ {
		cell := i % 2
		cx, bs, nv := s.CellIndexAt(cell), s.BoundaryLocals(cell), s.CellVertexCount(cell)
		req := &cluster.RaceReq{Cell: int32(cell)}
		qc := core.NewQueryContext()
		for d, n := 0, 1+rng.Intn(4); d < n; d++ {
			dst := graph.VertexID(rng.Intn(nv))
			offs := make([]float64, len(bs))
			for j, b := range bs {
				offs[j] = rng.Float64() * 0.2
				req.Offs, req.Us = append(req.Offs, cluster.Bits(offs[j])), append(req.Us, uint32(b))
			}
			req.Dsts, req.Ns = append(req.Dsts, uint32(dst)), append(req.Ns, int32(len(bs)))
			cx.RaceRoutes(qc, dst, offs, bs)
		}
		want += qc.Span.Refinements
		races = append(races, cluster.EncodeFrame(req))
	}
	lookup := cluster.EncodeFrame(&cluster.IntervalReq{Cell: 0, U: 1, Vs: []uint32{0, 2}, Cells: []uint64{0}})

	before := metricValue(t, srv.URL, "silcnode_refinements_total")
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(races))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(races); i += workers {
				for path, body := range map[string][]byte{cluster.PathRace: races[i], cluster.PathInterval: lookup} {
					resp, err := http.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
					if err == nil {
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							err = fmt.Errorf("%s: status %d", path, resp.StatusCode)
						}
					}
					if err != nil {
						errs <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := metricValue(t, srv.URL, "silcnode_refinements_total") - before
	if want == 0 || got != float64(want) {
		t.Fatalf("silcnode_refinements_total moved by %v over the burst; its requests refine %d steps in process", got, want)
	}
	t.Logf("%d race batches: %d refinement steps", len(races), want)
}

// fuzzNode serves a 6×6 road map's two cells from one node.
func fuzzNode(f *testing.F) http.Handler {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 6, Cols: 6, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	s, err := partition.Build(g, partition.Options{Partitions: 2})
	if err != nil {
		f.Fatal(err)
	}
	node, err := cluster.NewNode("a", &cluster.Manifest{Nodes: []cluster.NodeSpec{
		{Name: "a", Addr: "http://placeholder", Cells: []int{0, 1}}}}, s)
	if err != nil {
		f.Fatal(err)
	}
	return node.Handler()
}

// serveFrame posts body to path on h and requires a 200 whose body is a
// reply frame of resp's shape, or a 4xx: never a 5xx, never a panic.
func serveFrame(t *testing.T, h http.Handler, path string, body []byte, resp cluster.Message) int {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	switch {
	case w.Code == http.StatusOK:
		if err := cluster.DecodeFrame(w.Body.Bytes(), resp); err != nil {
			t.Fatalf("%s: 200 for %x with a reply that does not decode: %v", path, body, err)
		}
	case w.Code < 400 || w.Code > 499:
		t.Fatalf("%s: status %d for %x: %s", path, w.Code, body, w.Body.Bytes())
	}
	return w.Code
}

// frameSeeds adds a valid frame, the frame cut short by one byte and the
// frame with one byte too many.
func frameSeeds(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
}

// FuzzNodeRace: whatever bytes arrive on the race endpoint, the node answers
// a 4xx or a 200 whose reply has one distance and one winner per destination,
// and does not panic — the decoder of the one RPC whose request has columns
// that must fit together.
func FuzzNodeRace(f *testing.F) {
	h := fuzzNode(f)
	frameSeeds(f, cluster.EncodeFrame(&cluster.RaceReq{Cell: 0, Dsts: []uint32{1, 2}, Ns: []int32{1, 2},
		Offs: []uint64{0, 0, cluster.Bits(0.1)}, Us: []uint32{0, 3, 4}})) // a valid batch, truncated, trailing
	f.Add(cluster.EncodeFrame(&cluster.RaceReq{Cell: 1, Dsts: []uint32{1, 2, 3}, Ns: []int32{1}, Offs: []uint64{0}, Us: []uint32{0}})) // ragged ns
	f.Add([]byte{5, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0})                                                                   // 2^32−1 destinations declared in a 13-byte body
	f.Add(cluster.EncodeFrame(&cluster.RaceReq{Cell: 0, Dsts: []uint32{1, 2}, Ns: []int32{2147483647, 2147483647}, Offs: []uint64{0}, Us: []uint32{0}}))
	f.Add(cluster.EncodeFrame(&cluster.RaceReq{Cell: 0, Dsts: []uint32{1}, Ns: []int32{-1}}))
	f.Add(cluster.EncodeFrame(&cluster.RaceReq{Cell: 0, Dsts: []uint32{1}, Ns: []int32{1}, Offs: []uint64{0x7ff8000000000001}, Us: []uint32{0}})) // NaN offset bits
	f.Add(cluster.EncodeFrame(&cluster.RaceReq{Cell: 7, Dsts: []uint32{1}, Ns: []int32{1}, Offs: []uint64{0}, Us: []uint32{0}}))                  // unknown cell
	f.Add([]byte(`{"cell":0,"dsts":[1,2],"ns":[1,2],"offs":[0,0,4596373779694328218],"us":[0,3,4]}`))                                             // a v1 JSON body
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp cluster.RaceResp
		if serveFrame(t, h, cluster.PathRace, body, &resp) != http.StatusOK {
			return
		}
		var req cluster.RaceReq
		if err := cluster.DecodeFrame(body, &req); err != nil {
			t.Fatalf("200 for a request that does not decode: %v", err)
		}
		if len(resp.Ds) != len(req.Dsts) || len(resp.Args) != len(req.Dsts) {
			t.Fatalf("%d distances and %d winners for %d destinations", len(resp.Ds), len(resp.Args), len(req.Dsts))
		}
	})
}

// FuzzNodeInterval: whatever bytes arrive on the lookup endpoints — interval,
// whose batch form's cell words carry a code and a level that must fit
// together, intervals and path — the node answers a 4xx or a 200 with a reply
// of the endpoint's shape, and does not panic. Every input goes to all three.
func FuzzNodeInterval(f *testing.F) {
	h := fuzzNode(f)
	frameSeeds(f, cluster.EncodeFrame(&cluster.IntervalReq{Cell: 0, U: 1, Vs: []uint32{0, 2},
		Cells: []uint64{0, 805306374, 4294967311}})) // a valid batch (root, L6 at 3·4^10, L15 at 2^24), truncated, trailing
	for _, cells := range []uint64{271, 17, 1 << 40} { // code 1 at level 15: misaligned; level 17; code 2^32
		f.Add(cluster.EncodeFrame(&cluster.IntervalReq{Cell: 1, U: 1, Cells: []uint64{cells}}))
	}
	f.Add(cluster.EncodeFrame(&cluster.IntervalReq{Cell: 0, U: 1, Vs: []uint32{3}}))   // vs with no cells
	f.Add([]byte{3, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0}) // 2^32−1 vertices declared in a 19-byte body
	f.Add(cluster.EncodeFrame(&cluster.IntervalReq{Cell: 9, U: 0, V: 1}))              // unknown cell
	f.Add(cluster.EncodeFrame(&cluster.IntervalsReq{Cell: 0, V: 1, ToV: true}))        // a valid intervals frame
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 0, 0, 2})                                        // an intervals frame whose bool is 2
	f.Add(cluster.EncodeFrame(&cluster.PathReq{Cell: 1, U: 0, V: 2}))                  // a valid path frame
	f.Add(cluster.EncodeFrame(&cluster.PathReq{Cell: 0, U: 0, V: 4294967295}))         // a path to the largest id
	f.Add([]byte(`{"cell":0,"u":1,"vs":[0,2],"cells":[0]}`))                           // a v1 JSON body
	f.Fuzz(func(t *testing.T, body []byte) {
		var req cluster.IntervalReq
		var resp cluster.IntervalResp
		if serveFrame(t, h, cluster.PathInterval, body, &resp) == http.StatusOK {
			if err := cluster.DecodeFrame(body, &req); err != nil {
				t.Fatalf("200 for a request that does not decode: %v", err)
			}
			if len(resp.Los) != len(req.Vs) || len(resp.His) != len(req.Vs) || len(resp.Lbs) != len(req.Cells) {
				t.Fatalf("%d/%d intervals and %d bounds for %d vertices and %d cells",
					len(resp.Los), len(resp.His), len(resp.Lbs), len(req.Vs), len(req.Cells))
			}
		}
		serveFrame(t, h, cluster.PathIntervals, body, new(cluster.IntervalsResp))
		serveFrame(t, h, cluster.PathPath, body, new(cluster.PathResp))
	})
}
