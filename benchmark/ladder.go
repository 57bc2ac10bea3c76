package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"silc"
	"silc/internal/cluster"
	"silc/internal/core"
	"silc/internal/diskio"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/objstore"
	"silc/internal/partition"
	"silc/internal/pmr"
	"silc/internal/pqueue"
	"silc/internal/sssp"
	"silc/internal/store"
)

// rungBudget is how long each micro-benchmark of the ladder runs.
const rungBudget = 60 * time.Millisecond

// timeLoop calls f(i) for about budget, in five rounds, and returns the
// nanoseconds per unit of work of the fastest round; f returns how many
// units its call did. The fastest round, because a slow machine phase must
// not pass for a slow layer.
func timeLoop(budget time.Duration, f func(i int) int) float64 {
	const rounds = 5
	best := 0.0
	i := 0
	for r := 0; r < rounds; r++ {
		units := 0
		start := time.Now()
		var elapsed time.Duration
		for elapsed < budget/rounds {
			for n := 0; n < 16; n++ {
				units += f(i)
				i++
			}
			elapsed = time.Since(start)
		}
		if per := float64(elapsed.Nanoseconds()) / float64(units); best == 0 || per < best {
			best = per
		}
	}
	return best
}

var sink float64

// pair takes a vertex pair from the op sequence's own draws.
func (t *twin) pair(i int) (graph.VertexID, graph.VertexID) {
	n := uint32(t.in.g.NumVertices())
	o := t.in.ops[i%len(t.in.ops)]
	return graph.VertexID(o.a % n), graph.VertexID(o.b % n)
}

// ladder times every layer this workload's deployment has, in isolation,
// through the layer's own public functions.
func (t *twin) ladder(lm *layerMetrics, in *inputs) error {
	t.coreRungs(lm)
	t.sharedRungs(lm)
	if err := t.engineRungs(lm); err != nil {
		return err
	}
	lm.knnQueries, lm.knnReads = t.knnCounts.queries, t.knnCounts.pageReads
	if t.pstore != nil {
		if err := t.storeRungs(lm); err != nil {
			return err
		}
	}
	if t.w.layers["diskio"] {
		diskioRungs(lm)
	}
	if t.sharded != nil {
		if err := t.partitionRungs(lm); err != nil {
			return err
		}
		if err := t.clusterRungs(lm); err != nil {
			return err
		}
	}
	if t.w.layers["objstore"] {
		if err := t.objstoreRungs(lm); err != nil {
			return err
		}
	}
	return nil
}

func (t *twin) coreRungs(lm *layerMetrics) {
	ix, qc := t.coreIx, core.NewQueryContext()
	lm.set("core.interval_ns", timeLoop(rungBudget, func(i int) int {
		u, v := t.pair(i)
		sink += ix.DistanceIntervalCtx(qc, u, v).Lo
		return 1
	}))
	lm.set("core.refine_step_ns", timeLoop(rungBudget, func(i int) int {
		u, v := t.pair(i)
		qc.ResetForReuse(nil)
		r, steps := ix.NewRefinerCtx(qc, u, v), 1
		for r.Step() {
			steps++
		}
		return steps
	}))
	lm.set("core.distance_us", timeLoop(rungBudget, func(i int) int {
		u, v := t.pair(i)
		qc.ResetForReuse(nil)
		sink += ix.DistanceCtx(qc, u, v)
		return 1
	})/1e3)
	lm.set("core.build_vertices_per_s", float64(t.in.g.NumVertices())/t.buildSecs)
	lm.set("core.blocks_per_vertex", ix.Stats().BlocksPerVertex())
}

func (t *twin) sharedRungs(lm *layerMetrics) {
	var h pqueue.Min[int32]
	lm.set("pqueue.push_pop_ns", timeLoop(rungBudget, func(i int) int {
		const n = 64
		for j := 0; j < n; j++ {
			h.Push(float64((i*31+j*17)%97), int32(j))
		}
		for j := 0; j < n; j++ {
			k, _ := h.Pop()
			sink += k
		}
		return n
	}))
	verts := vertexIDs(t.in.objects)
	lm.set("pmr.build_us_per_1k", timeLoop(rungBudget, func(int) int {
		sink += float64(pmr.FromVertices(t.in.g, verts, 0).Len())
		return len(verts)
	})*1000/1e3)
	ws := sssp.NewWorkspace(t.in.g.NumVertices())
	lm.set("sssp.dijkstra_us", timeLoop(rungBudget, func(i int) int {
		u, _ := t.pair(i)
		sink += float64(ws.Run(t.in.g, u).Settled)
		return 1
	})/1e3)
}

// engineRungs measures two things about the public engine that no span
// shows: what a warm kNN allocates, and what a second worker buys a batch.
func (t *twin) engineRungs(lm *layerMetrics) error {
	ctx := context.Background()
	t.eng.SetTracing(true)
	const reps = 50
	query := func(i int) error {
		u, _ := t.pair(i)
		_, err := t.eng.Query(ctx, t.static, silc.VertexID(u), knnK)
		return err
	}
	// A collection in mid-count would empty the engine's context pool and
	// charge its refill to these queries; collect now and hold off until
	// the count is taken, so that the number repeats.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < reps; i++ { // fill the engine's context pool first
		if err := query(i); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := query(i); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	// Whole allocations per op, as testing.AllocsPerRun reports them: the
	// runtime's own background mallocs are a fraction of one per op.
	lm.set("engine.allocs_per_op", float64((after.Mallocs-before.Mallocs)/reps))

	if !t.w.has(opBatch) {
		return nil // no batch in this workload's traffic
	}
	qs := make([]silc.VertexID, batchSize)
	for i := range qs {
		u, _ := t.pair(i)
		qs[i] = silc.VertexID(u)
	}
	var one, two []float64
	for rep := 0; rep < 9; rep++ {
		for _, workers := range []int{1, 2} {
			start := time.Now()
			if _, err := t.eng.QueryBatch(ctx, t.static, qs, knnK, silc.WithWorkers(workers)); err != nil {
				return err
			}
			if d := time.Since(start).Seconds(); workers == 1 {
				one = append(one, d)
			} else {
				two = append(two, d)
			}
		}
	}
	lm.set("engine.batch2_speedup", median(one)/median(two))
	return nil
}

// storeRungs times the paged store on fresh handles of the same image, so
// that "cold" means cold: a pool the replay has not touched.
func (t *twin) storeRungs(lm *layerMetrics) error {
	g := t.pstore.Graph()
	n := g.NumVertices()
	// One vertex's run, re-encoded as the image holds it, decoded again.
	type run struct {
		data       []byte
		count, deg int
	}
	var runs []run
	for v := 0; v < n && len(runs) < 64; v += n / 64 {
		tree, err := t.pstore.Tree(nil, graph.VertexID(v))
		if err != nil {
			return err
		}
		data, err := store.CompressRun(nil, tree.Blocks)
		if err != nil {
			return err
		}
		runs = append(runs, run{data, len(tree.Blocks), g.Degree(graph.VertexID(v))})
	}
	var decodeErr error
	lm.set("store.decode_run_us", timeLoop(rungBudget, func(i int) int {
		r := runs[i%len(runs)]
		if _, _, err := store.DecompressRun(r.data, r.count, r.deg); err != nil {
			decodeErr = err
		}
		return 1
	})/1e3)
	if decodeErr != nil {
		return decodeErr
	}

	image := t.image
	cold := func(open func(string, store.OpenOptions) (*store.Store, error)) (perTree, perRead float64, err error) {
		st, err := open(image, store.OpenOptions{CacheFraction: t.w.pool})
		if err != nil {
			return 0, 0, err
		}
		defer st.Close()
		var io diskio.Stats
		calls := 0
		start := time.Now()
		for time.Since(start) < rungBudget {
			// A stride coprime with n visits every vertex before any
			// repeats: with a pool this small, nothing is still resident by then.
			v := graph.VertexID((calls * 2654435761) % n)
			if _, err := st.Tree(&io, v); err != nil {
				return 0, 0, err
			}
			calls++
		}
		total := float64(time.Since(start).Nanoseconds()) / 1e3
		if io.Reads == 0 {
			return total / float64(calls), 0, nil
		}
		return total / float64(calls), total / float64(io.Reads), nil
	}
	perTree, perRead, err := cold(store.OpenFile)
	if err != nil {
		return err
	}
	lm.set("store.tree_cold_us", perTree)
	lm.coldReadMicros = perRead
	if perTree, _, err = cold(store.OpenMapped); err != nil {
		return err
	}
	lm.set("store.tree_cold_mmap_us", perTree)

	var warmErr error
	lm.set("store.tree_warm_ns", timeLoop(rungBudget, func(i int) int {
		if _, err := t.pstore.Tree(nil, graph.VertexID(i%4)); err != nil {
			warmErr = err
		}
		return 1
	}))
	if warmErr != nil {
		return warmErr
	}

	st, err := os.Stat(image)
	if err != nil {
		return err
	}
	blocks, _, _ := t.pstore.BlockStats()
	lm.set("store.image_ratio", float64(store.ImageSize(n, g.NumEdges(), blocks))/float64(st.Size()))
	return nil
}

func diskioRungs(lm *layerMetrics) {
	const capacity = 256
	pool := diskio.NewPool(capacity, 16)
	var qs diskio.Stats
	lm.set("diskio.touch_hit_ns", timeLoop(rungBudget, func(i int) int {
		pool.TouchEvict(diskio.PageID(i%(capacity/4)), &qs)
		return 1
	}))
	lm.set("diskio.touch_miss_evict_ns", timeLoop(rungBudget, func(i int) int {
		pool.TouchEvict(diskio.PageID(capacity+i), &qs) // never seen before: a miss that evicts
		return 1
	}))
}

func (t *twin) partitionRungs(lm *layerMetrics) error {
	sx, qc := t.sharded, core.NewQueryContext()
	var same, cross [][2]graph.VertexID
	for i := 0; len(same) < 256 || len(cross) < 256; i++ {
		u, v := t.pair(i)
		if sx.CellOf(u) == sx.CellOf(v) {
			same = append(same, [2]graph.VertexID{u, v})
		} else {
			cross = append(cross, [2]graph.VertexID{u, v})
		}
	}
	dist := func(pairs [][2]graph.VertexID) float64 {
		return timeLoop(rungBudget, func(i int) int {
			p := pairs[i%len(pairs)]
			qc.ResetForReuse(nil)
			sink += sx.DistanceCtx(qc, p[0], p[1])
			return 1
		}) / 1e3
	}
	lm.set("partition.distance_same_cell_us", dist(same))
	lm.set("partition.distance_cross_cell_us", dist(cross))
	if err := qc.Err(); err != nil {
		return err
	}
	mono := timeLoop(rungBudget, func(i int) int {
		u, _ := t.pair(i)
		qc.ResetForReuse(nil)
		knn.SearchSpec(t.coreIx, qc, t.kstatic, u, knn.UnboundedSpec(knnK, knn.VariantKNN))
		return 1
	}) / 1e3
	lm.set("partition.knn_vs_mono", lm.get("knn.search_us")/mono)

	start := time.Now()
	if _, err := partition.Build(t.in.g, partition.Options{Partitions: sx.NumPartitions()}); err != nil {
		return err
	}
	lm.set("partition.build_s", time.Since(start).Seconds())
	return nil
}

// clusterRungs serves the twin's cells from one in-process node on a
// loopback listener and times single RPCs through the real client.
func (t *twin) clusterRungs(lm *layerMetrics) error {
	sx := t.sharded
	srv := httptest.NewUnstartedServer(nil)
	defer srv.Close()
	cells := make([]int, sx.NumPartitions())
	for i := range cells {
		cells[i] = i
	}
	m := &cluster.Manifest{Index: t.image, Nodes: []cluster.NodeSpec{
		{Name: "ladder", Addr: "http://" + srv.Listener.Addr().String(), Cells: cells},
	}}
	node, err := cluster.NewNode("ladder", m, sx)
	if err != nil {
		return err
	}
	srv.Config.Handler = node.Handler()
	srv.Start()
	client, err := cluster.NewClient(m, sx.NumPartitions(), cluster.ClientOptions{})
	if err != nil {
		return err
	}
	ctx := context.Background()
	var callErr error
	lm.set("cluster.rpc_roundtrip_us", timeLoop(rungBudget, func(i int) int {
		cell := int32(i % len(cells))
		n := uint32(sx.CellVertexCount(int(cell)))
		var resp cluster.IntervalResp
		req := cluster.IntervalReq{Cell: cell, U: uint32(i) % n, V: uint32(i*7+1) % n}
		if err := client.Call(ctx, cell, cluster.PathInterval, &req, &resp); err != nil {
			callErr = err
		}
		return 1
	})/1e3)
	if callErr != nil {
		return callErr
	}
	// The codec cost of one intervals RPC, no network: both ends' marshal
	// and unmarshal of a real request and its real reply.
	req := cluster.IntervalsReq{Cell: 0, V: 0, ToV: true}
	var resp cluster.IntervalsResp
	if err := client.Call(ctx, 0, cluster.PathIntervals, &req, &resp); err != nil {
		return err
	}
	var codecErr error
	lm.set("cluster.json_codec_us", timeLoop(rungBudget, func(int) int {
		var req2 cluster.IntervalsReq
		var resp2 cluster.IntervalsResp
		a, err1 := json.Marshal(&req)
		err2 := json.Unmarshal(a, &req2)
		b, err3 := json.Marshal(&resp)
		err4 := json.Unmarshal(b, &resp2)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			codecErr = err
		}
		return 1
	})/1e3)
	return codecErr
}

func (t *twin) objstoreRungs(lm *layerMetrics) error {
	g, n := t.in.g, t.in.g.NumVertices()
	moveCost := func(objects int) float64 {
		st := objstore.New(g, objstore.Options{})
		defer st.Close()
		for i := 0; i < objects; i++ {
			st.Insert(graph.VertexID(i % n))
		}
		return timeLoop(rungBudget, func(i int) int {
			_, v := t.pair(i)
			st.Move(int32(i%objects), v)
			return 1
		}) / 1e3
	}
	base := moveCost(len(t.in.objects))
	lm.set("objstore.mutation_us", base)
	lm.set("objstore.mutation_scaling", moveCost(4*len(t.in.objects))/base)

	world, err := silc.NewLiveObjects(t.net, silc.LiveObjectsOptions{})
	if err != nil {
		return err
	}
	defer world.Close()
	for _, v := range t.in.objects {
		world.Insert(silc.VertexID(v))
	}
	var views []float64
	for i := 0; i < 200; i++ {
		_, v := t.pair(i)
		world.Move(int32(i%len(t.in.objects)), v)
		start := time.Now()
		sink += float64(world.View().Len())
		views = append(views, float64(time.Since(start).Nanoseconds())/1e3)
	}
	lm.set("objstore.view_rebuild_us", median(views))

	lag, err := t.watchLag(world)
	if err != nil {
		return err
	}
	lm.set("objstore.watch_lag_us", lag)
	return nil
}

// watchLag is the median time from calling a mutation that changes a
// watched top-k to the watcher's event arriving.
func (t *twin) watchLag(world *silc.LiveObjects) (float64, error) {
	// Watch a vertex; move one object onto it (it becomes the nearest) and
	// away to the far end of the network (it leaves the top-k) in turn.
	var far int32
	t.in.oracle.explore(0, func(v int32, _ float64) bool {
		far = v // the last vertex Dijkstra settles is the farthest
		return true
	})
	ctx, cancel := context.WithCancel(context.Background())
	events := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, err := range t.eng.Watch(ctx, world, 0, knnK) {
			if err != nil {
				return
			}
			select {
			case events <- struct{}{}:
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() {
		cancel()
		<-done
	}()
	wait := func() error {
		select {
		case <-events:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("watch: no event within 5 s")
		}
	}
	if err := wait(); err != nil { // the initial top-k
		return 0, err
	}
	const mover = 0
	if _, err := world.Move(mover, silc.VertexID(far)); err != nil {
		return 0, err
	}
	// Whether that first move changed the top-k depends on where object 0
	// started; drain its event if there is one.
	select {
	case <-events:
	case <-time.After(50 * time.Millisecond):
	}
	var lags []float64
	for i := 0; i < 20; i++ {
		target := silc.VertexID(0)
		if i%2 == 1 {
			target = silc.VertexID(far)
		}
		start := time.Now()
		if _, err := world.Move(mover, target); err != nil {
			return 0, err
		}
		if err := wait(); err != nil {
			return 0, err
		}
		lags = append(lags, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(lags), nil
}
