package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"silc"
	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/objstore"
	"silc/internal/partition"
	"silc/internal/store"
)

// twin is the in-process copy of a deployment's query stack, opened on the
// same artifacts: the public engine the server wraps, and below it the
// core.QueryIndex the knn layer searches. The traced run times the same ops
// through each to split a request's round trip into layers.
type twin struct {
	w     *workload
	in    *inputs
	image string // the deployment's index file; empty when built in RAM
	net   *silc.Network

	eng     *silc.Engine
	static  *silc.ObjectSet
	closers []func() error

	qx      core.QueryIndex // what knn.SearchSpec runs on
	kstatic *knn.Objects

	// coreIx is an in-RAM index of the run's network, built here whatever
	// the deployment: the core rungs are timed on it, free of I/O.
	coreIx    *core.Index
	buildSecs float64
	pstore    *store.Store       // paged twin's store
	sharded   *partition.Sharded // cluster twin's index

	knnCounts knnCounts
}

// knnCounts sums what the knn layer reports over the replay's kNN ops.
type knnCounts struct{ queries, refinements, lookups, heapPushes, pageReads int64 }

// vertexIDs converts the benchmark's plain ids; silc.VertexID is the same
// type as graph.VertexID.
func vertexIDs(vs []int32) []graph.VertexID {
	out := make([]graph.VertexID, len(vs))
	for i, v := range vs {
		out[i] = graph.VertexID(v)
	}
	return out
}

func openTwin(w *workload, in *inputs, image string) (_ *twin, err error) {
	t := &twin{w: w, in: in, image: image}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	start := time.Now()
	if t.coreIx, err = core.Build(in.g, core.BuildOptions{}); err != nil {
		return nil, fmt.Errorf("core.Build: %w", err)
	}
	t.buildSecs = time.Since(start).Seconds()

	switch {
	case w.layers["cluster"]:
		sx, err := silc.OpenShardedIndex(image, silc.ShardedBuildOptions{CacheFraction: w.pool})
		if err != nil {
			return nil, err
		}
		t.closers = append(t.closers, sx.Close)
		t.eng, t.net = sx.Engine(), sx.Network()
		f, err := os.Open(image)
		if err != nil {
			return nil, err
		}
		t.closers = append(t.closers, f.Close)
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if t.sharded, err = partition.OpenPaged(f, st.Size(), partition.Options{CacheFraction: w.pool}); err != nil {
			return nil, err
		}
		t.qx = t.sharded
	case w.layers["store"]:
		ix, err := silc.OpenIndex(image, silc.BuildOptions{CacheFraction: w.pool})
		if err != nil {
			return nil, err
		}
		t.closers = append(t.closers, ix.Close)
		t.eng, t.net = ix.Engine(), ix.Network()
		if t.pstore, err = store.OpenFile(image, store.OpenOptions{CacheFraction: w.pool}); err != nil {
			return nil, err
		}
		t.closers = append(t.closers, t.pstore.Close)
		t.qx = pagedCore(t.pstore)
	default:
		f, err := os.Open(in.netPath)
		if err != nil {
			return nil, err
		}
		t.net, err = silc.LoadNetwork(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		ix, err := silc.BuildIndex(t.net, silc.BuildOptions{})
		if err != nil {
			return nil, err
		}
		t.eng = ix.Engine()
		t.qx = t.coreIx
	}
	if t.static, err = silc.NewObjectSet(t.net, vertexIDs(in.objects)); err != nil {
		return nil, err
	}
	t.kstatic = knn.NewObjects(in.g, vertexIDs(in.objects))
	return t, nil
}

// pagedCore wraps an opened paged store as the core index the public
// OpenIndex builds over it.
func pagedCore(st *store.Store) *core.Index {
	g := st.Graph()
	total, minBlocks, maxBlocks := st.BlockStats()
	return core.NewPagedIndex(core.PagedConfig{
		Graph:       g,
		Source:      st,
		Tracker:     st.Tracker(),
		Radius:      st.Radius(),
		Lenient:     st.Lenient(),
		Compression: st.Compression(),
		Stats: core.BuildStats{
			Vertices: g.NumVertices(), Edges: g.NumEdges(),
			TotalBlocks: total, TotalBytes: total * 16, MinBlocks: minBlocks, MaxBlocks: maxBlocks,
		},
	})
}

func (t *twin) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// enginePass replays ops through the public engine, with the engine's own
// tracing on (as silcserve runs it) or off. Each pass owns its live world,
// so every pass applies every mutation exactly once.
type enginePass struct {
	t      *twin
	traced bool
	world  *silc.LiveObjects
	table  *liveTable
	opts   []silc.Option
}

func (t *twin) enginePass(traced bool) *enginePass {
	p := &enginePass{t: t, traced: traced}
	if t.w.exact {
		p.opts = append(p.opts, silc.WithExactDistances())
	}
	if t.w.live {
		// NewLiveObjects only fails on a nil network.
		p.world, _ = silc.NewLiveObjects(t.net, silc.LiveObjectsOptions{})
		t.closers = append(t.closers, func() error { p.world.Close(); return nil })
		for _, v := range t.in.objects {
			p.world.Insert(silc.VertexID(v))
		}
		p.table = newLiveTable(t.in.objects)
	}
	return p
}

func (p *enginePass) parent(kind opKind) string { return "silcserve." + kind.String() }

func (p *enginePass) objs() *silc.ObjectSet {
	if p.world != nil {
		return p.world.View()
	}
	return p.t.static
}

func (p *enginePass) do(_ int, o op) (string, time.Time, time.Duration, error) {
	ctx := context.Background()
	eng := p.t.eng
	eng.SetTracing(p.traced)
	name := "engine." + o.kind.String()
	if !p.traced {
		name = "engine-untraced." + o.kind.String()
	}
	var err error
	start := time.Now()
	switch o.kind {
	case opKNN:
		_, err = eng.Query(ctx, p.objs(), silc.VertexID(o.a), knnK, p.opts...)
	case opRange:
		_, err = eng.WithinDistance(ctx, p.objs(), silc.VertexID(o.a), p.t.in.radius, p.opts...)
	case opDistance:
		_, err = eng.Distance(ctx, silc.VertexID(o.a), silc.VertexID(o.b))
	case opPath:
		_, err = eng.ShortestPath(ctx, silc.VertexID(o.a), silc.VertexID(o.b))
	case opBatch:
		qs := make([]silc.VertexID, len(o.batch))
		for i, q := range o.batch {
			qs[i] = silc.VertexID(q)
		}
		_, err = eng.QueryBatch(ctx, p.objs(), qs, knnK, p.opts...)
	case opMove:
		id := p.table.target(o)
		_, err = p.world.Move(id, silc.VertexID(o.b))
		p.table.apply(o, id)
	case opInsert:
		var id int32
		id, _, err = p.world.Insert(silc.VertexID(o.b))
		p.table.apply(o, id)
	case opDelete:
		id := p.table.target(o)
		_, err = p.world.Remove(id)
		p.table.apply(o, id)
	}
	return name, start, time.Since(start), err
}

// knnPass replays ops one layer further down: knn.SearchSpec and
// knn.RangeSearchCtx on the core.QueryIndex, core's exact distance, and the
// objstore's own mutators. It also takes the knn counts, per kNN op.
type knnPass struct {
	t     *twin
	qc    *core.QueryContext
	world *objstore.Store
	table *liveTable
}

func (t *twin) knnPass() *knnPass {
	p := &knnPass{t: t, qc: core.NewQueryContext()}
	if t.w.live {
		p.world = objstore.New(t.in.g, objstore.Options{})
		t.closers = append(t.closers, func() error { p.world.Close(); return nil })
		for _, v := range t.in.objects {
			p.world.Insert(graph.VertexID(v))
		}
		p.table = newLiveTable(t.in.objects)
	}
	return p
}

func (p *knnPass) parent(kind opKind) string { return "engine." + kind.String() }

func (p *knnPass) objs() *knn.Objects {
	if p.world != nil {
		return p.world.Snapshot().Objects
	}
	return p.t.kstatic
}

func (p *knnPass) do(_ int, o op) (string, time.Time, time.Duration, error) {
	t := p.t
	p.qc.ResetForReuse(nil)
	var name string
	var err error
	start := time.Now()
	switch o.kind {
	case opKNN:
		name = "knn.search"
		res := knn.SearchSpec(t.qx, p.qc, p.objs(), graph.VertexID(o.a), knn.UnboundedSpec(knnK, knn.VariantKNN))
		d := time.Since(start)
		err = res.Err
		t.knnCounts.queries++
		t.knnCounts.refinements += int64(res.Stats.Refinements)
		t.knnCounts.lookups += int64(res.Stats.Lookups)
		t.knnCounts.heapPushes += p.qc.Span.HeapPushes
		t.knnCounts.pageReads += p.qc.IO.Reads
		return name, start, d, err
	case opRange:
		name = "knn.range"
		err = knn.RangeSearchCtx(t.qx, p.qc, p.objs(), graph.VertexID(o.a), t.in.radius).Err
	case opDistance:
		name = "core.distance"
		core.ExactDistance(t.qx, p.qc, graph.VertexID(o.a), graph.VertexID(o.b))
		err = p.qc.Err()
	case opMove:
		name = "objstore.mutation"
		id := p.table.target(o)
		p.world.Move(id, graph.VertexID(o.b))
		p.table.apply(o, id)
	case opInsert:
		name = "objstore.mutation"
		id, _ := p.world.Insert(graph.VertexID(o.b))
		p.table.apply(o, id)
	case opDelete:
		name = "objstore.mutation"
		id := p.table.target(o)
		p.world.Remove(id)
		p.table.apply(o, id)
	}
	return name, start, time.Since(start), err
}
