package silc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"silc/internal/oracle"
)

// TestNewObjectSetFromPointsDedupe is the regression test for the phantom-
// duplicate bug: distinct points snapping to the same vertex used to create
// one object each, so kNN results reported the same network location k times.
// They must collapse into one object, ids dense in first-appearance order.
func TestNewObjectSetFromPointsDedupe(t *testing.T) {
	net := testNetwork(t)
	p5, p9 := net.Point(5), net.Point(9)
	pts := []Point{
		{X: p5.X + 1e-9, Y: p5.Y}, // snaps to vertex 5
		{X: p9.X, Y: p9.Y - 1e-9}, // snaps to vertex 9
		{X: p5.X - 1e-9, Y: p5.Y}, // vertex 5 again: must not duplicate
		p5,                        // and again, exactly on it
	}
	objs, err := NewObjectSetFromPoints(net, pts)
	if err != nil {
		t.Fatal(err)
	}
	if objs.Len() != 2 {
		t.Fatalf("4 points on 2 vertices made %d objects, want 2", objs.Len())
	}
	if objs.Vertex(0) != 5 || objs.Vertex(1) != 9 {
		t.Fatalf("object vertices = %d,%d, want 5,9 (first-appearance order)",
			objs.Vertex(0), objs.Vertex(1))
	}
	// A kNN from vertex 5 must see ONE object at distance zero, not phantom
	// duplicates of the same location.
	eng := testIndex(t, net).Engine()
	res, err := eng.Query(context.Background(), objs, 5, 2, WithExactDistances())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 2 || res.Neighbors[0].Dist != 0 || res.Neighbors[1].Dist == 0 {
		t.Fatalf("kNN over deduped set: %+v", res.Neighbors)
	}
}

// TestLiveObjectsLifecycle covers the CRUD surface end to end: version
// monotonicity, snapshot pinning (a pinned view is immutable under later
// mutations), version stamping on results, and the typed errors.
func TestLiveObjectsLifecycle(t *testing.T) {
	net := testNetwork(t)
	eng := testIndex(t, net).Engine()
	ctx := context.Background()
	live, err := NewLiveObjects(net, LiveObjectsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	// An empty world is a valid view but no query target.
	if _, err := eng.Query(ctx, live.View(), 0, 3); !errors.Is(err, ErrEmptyObjects) {
		t.Fatalf("empty live world: got %v, want ErrEmptyObjects", err)
	}

	id0, v1, err := live.Insert(5)
	if err != nil {
		t.Fatal(err)
	}
	id1, v2, err := live.Insert(9)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 || live.Version() != v2 || live.Len() != 2 {
		t.Fatalf("versions %d,%d (store %d), len %d", v1, v2, live.Version(), live.Len())
	}
	if _, _, err := live.Insert(VertexID(net.NumVertices())); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("out-of-range insert: got %v", err)
	}
	if _, err := live.Move(999, 0); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("move of unknown id: got %v", err)
	}
	if _, err := live.Remove(999); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("remove of unknown id: got %v", err)
	}

	view := live.View()
	if view.Version() != v2 {
		t.Fatalf("view version %d, want %d", view.Version(), v2)
	}
	if again := live.View(); again != view {
		t.Fatal("View with an unchanged store rebuilt the wrapper (cache miss)")
	}
	res, err := eng.Query(ctx, view, 5, 1, WithExactDistances())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SnapshotVersion != v2 {
		t.Fatalf("stamped version %d, want %d", res.Stats.SnapshotVersion, v2)
	}
	if len(res.Neighbors) != 1 || res.Neighbors[0].ID != id0 || res.Neighbors[0].Dist != 0 {
		t.Fatalf("kNN at the object's own vertex: %+v", res.Neighbors)
	}

	// The pinned view is exact for ITS version however the world moves on.
	v3, err := live.Remove(id0)
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query(ctx, view, 5, 1, WithExactDistances())
	if err != nil {
		t.Fatal(err)
	}
	if res.Neighbors[0].ID != id0 || res.Stats.SnapshotVersion != v2 {
		t.Fatalf("pinned view leaked a later removal: %+v (version %d)",
			res.Neighbors, res.Stats.SnapshotVersion)
	}
	// A fresh view sees it.
	res, err = eng.Query(ctx, live.View(), 5, 1, WithExactDistances())
	if err != nil {
		t.Fatal(err)
	}
	if res.Neighbors[0].ID != id1 || res.Stats.SnapshotVersion != v3 {
		t.Fatalf("fresh view after removal: %+v (version %d)", res.Neighbors, res.Stats.SnapshotVersion)
	}

	// List and Vertex agree on the one survivor.
	list, ver := live.List()
	if ver != v3 || len(list) != 1 || list[0].ID != id1 || list[0].Vertex != 9 {
		t.Fatalf("List = %+v (version %d)", list, ver)
	}
	if v, ok := live.Vertex(id1); !ok || v != 9 {
		t.Fatalf("Vertex(%d) = %d,%v", id1, v, ok)
	}
	if _, ok := live.Vertex(id0); ok {
		t.Fatalf("Vertex of removed id %d still resolves", id0)
	}

	// Every query entry point stamps the snapshot version.
	view = live.View()
	rres, err := eng.WithinDistance(ctx, view, 9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Stats.SnapshotVersion != v3 {
		t.Fatalf("range stamped %d, want %d", rres.Stats.SnapshotVersion, v3)
	}
	var st QueryStats
	for _, err := range eng.Neighbors(ctx, view, 9, WithStats(&st)) {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if st.SnapshotVersion != v3 {
		t.Fatalf("neighbors stream stamped %d, want %d", st.SnapshotVersion, v3)
	}
	// Static sets stamp zero — the sentinel for "not a live snapshot".
	static := mustObjects(t, net, []VertexID{4, 8})
	sres, err := eng.Query(ctx, static, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Stats.SnapshotVersion != 0 {
		t.Fatalf("static set stamped %d, want 0", sres.Stats.SnapshotVersion)
	}
}

// TestLiveExpire covers the public TTL surface: Expire removes only objects
// idle longer than the horizon, and Move refreshes the clock.
func TestLiveExpire(t *testing.T) {
	net := testNetwork(t)
	live, err := NewLiveObjects(net, LiveObjectsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	idOld, _, _ := live.Insert(3)
	idFresh, _, _ := live.Insert(7)
	time.Sleep(30 * time.Millisecond)
	if _, err := live.Move(idFresh, 8); err != nil { // refreshes idFresh's clock
		t.Fatal(err)
	}
	n, _ := live.Expire(20 * time.Millisecond)
	if n != 1 || live.Len() != 1 {
		t.Fatalf("expired %d objects (len %d), want 1 (idle one only)", n, live.Len())
	}
	if _, ok := live.Vertex(idOld); ok {
		t.Fatal("the idle object survived Expire")
	}
	if _, ok := live.Vertex(idFresh); !ok {
		t.Fatal("the refreshed object was expired")
	}
}

// slotOrderedOracle builds, from scratch, the static object set over the
// model's id → vertex table whose dense ids follow view's slots in ascending
// order, and returns it with the public id of each dense id. Its quadtree is
// then view's up to that monotone renumbering, leaf order included, so a
// search over either walks the same trajectory: every distance bit, every id
// and every counter must agree, ties and all.
func slotOrderedOracle(t *testing.T, net *Network, view *ObjectSet, model map[int32]VertexID) (*ObjectSet, []int32) {
	t.Helper()
	var ids []int32
	var verts []VertexID
	for slot := int32(0); int(slot) < view.objs.SlotBound(); slot++ {
		if view.objs.Live(slot) {
			id := view.objs.Label(slot)
			v, ok := model[id]
			if !ok {
				t.Fatalf("version %d: slot %d holds id %d, which the model does not", view.Version(), slot, id)
			}
			ids, verts = append(ids, id), append(verts, v)
		}
	}
	if len(ids) != len(model) {
		t.Fatalf("version %d: %d live slots, model has %d objects", view.Version(), len(ids), len(model))
	}
	return mustObjects(t, net, verts), ids
}

// sameAnswer fails unless got (over a live view) is want (over its oracle,
// dense ids translated by ids) in every neighbor field, bit for bit, and in
// every search counter.
func sameAnswer(t *testing.T, what string, got, want Result, ids []int32) {
	t.Helper()
	if len(got.Neighbors) != len(want.Neighbors) || got.Sorted != want.Sorted {
		t.Fatalf("%s: %d neighbors sorted=%v, oracle %d sorted=%v", what, len(got.Neighbors), got.Sorted, len(want.Neighbors), want.Sorted)
	}
	for i, w := range want.Neighbors {
		w.ID = ids[w.ID]
		g := got.Neighbors[i]
		if g.ID != w.ID || g.Vertex != w.Vertex || g.Exact != w.Exact ||
			math.Float64bits(g.Dist) != math.Float64bits(w.Dist) ||
			math.Float64bits(g.Interval.Lo) != math.Float64bits(w.Interval.Lo) ||
			math.Float64bits(g.Interval.Hi) != math.Float64bits(w.Interval.Hi) {
			t.Fatalf("%s: rank %d is %+v, oracle %+v", what, i, g, w)
		}
	}
	gs, ws := got.Stats, want.Stats
	if gs.Refinements != ws.Refinements || gs.Lookups != ws.Lookups || gs.HeapPushes != ws.HeapPushes ||
		gs.MaxQueue != ws.MaxQueue || gs.Settled != ws.Settled {
		t.Fatalf("%s: counters %+v, oracle %+v", what, gs, ws)
	}
}

// TestLiveModelHistory replays a long random Insert/Move/Remove/Expire
// history against a plain id → vertex map and, every few steps, asks the live
// view and a set built from scratch over the map (slotOrderedOracle) the
// same questions on a monolithic and a sharded engine: all six kNN methods
// and the range query, loose and refined to exact, plus List, Vertex and the
// Euclidean ranking. The population is driven up and down so that versions
// reuse freed slots and carry gaps below their slot bound — and the engines'
// pooled search arenas meet slot bounds that grow and shrink.
func TestLiveModelHistory(t *testing.T) {
	net := testNetwork(t)
	sx, err := BuildShardedIndex(net, ShardedBuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	engines := []allocEngine{{"monolithic", testIndex(t, net).Engine()}, {"sharded", sx.Engine()}}
	ctx := context.Background()
	live, err := NewLiveObjects(net, LiveObjectsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	rng := rand.New(rand.NewSource(23))
	randomVertex := func() VertexID { return VertexID(rng.Intn(net.NumVertices())) }
	model := make(map[int32]VertexID)
	var ids []int32 // live ids, any order
	var lastRemoved int32 = -1
	drop := func(i int) {
		lastRemoved = ids[i]
		delete(model, ids[i])
		ids[i] = ids[len(ids)-1]
		ids = ids[:len(ids)-1]
	}
	version := uint64(0)
	bump := func(got uint64, err error) {
		t.Helper()
		version++
		if err != nil || got != version {
			t.Fatalf("mutation answered version %d (%v), want %d", got, err, version)
		}
	}

	const steps = 2400
	target := 0
	var gaps bool
	for step := 0; step < steps; step++ {
		if step%300 == 0 {
			target = []int{25, 160, 12, 320, 40, 90, 240, 8}[step/300]
		}
		switch r := rng.Intn(100); {
		case step%300 == 299 && len(ids) > 1:
			// Expire the half of the world that is not touched from here on.
			mark := time.Now()
			time.Sleep(2 * time.Millisecond)
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			keep := len(ids) / 2
			for _, id := range ids[:keep] {
				v := randomVertex()
				bump(live.Move(id, v))
				model[id] = v
			}
			for len(ids) > keep {
				drop(len(ids) - 1)
			}
			n, ver := live.Expire(time.Since(mark))
			version++
			if n == 0 || len(ids) != live.Len() || ver != version {
				t.Fatalf("step %d: Expire removed %d at version %d, leaving %d; want %d left at version %d",
					step, n, ver, live.Len(), len(ids), version)
			}
		case len(ids) == 0 || (r < 40 && len(ids) < 2*target) || len(ids) < target/2:
			v := randomVertex()
			id, ver, err := live.Insert(v)
			bump(ver, err)
			model[id] = v
			ids = append(ids, id)
		case r < 75 && len(ids) <= 2*target:
			id, v := ids[rng.Intn(len(ids))], randomVertex()
			bump(live.Move(id, v))
			model[id] = v
		default:
			i := rng.Intn(len(ids))
			bump(live.Remove(ids[i]))
			drop(i)
		}
		if step%20 != 0 && step%300 != 299 || len(ids) == 0 {
			continue
		}

		view := live.View()
		gaps = gaps || view.objs.SlotBound() > view.Len()
		if view.Version() != version || view.Len() != len(ids) || live.Len() != len(ids) {
			t.Fatalf("step %d: view version %d len %d (store %d), model version %d len %d",
				step, view.Version(), view.Len(), live.Len(), version, len(ids))
		}
		list, ver := live.List()
		if ver != version || len(list) != len(ids) {
			t.Fatalf("step %d: List has %d objects at version %d, model %d at %d", step, len(list), ver, len(ids), version)
		}
		for i, o := range list {
			if v, ok := model[o.ID]; !ok || v != o.Vertex || (i > 0 && list[i-1].ID >= o.ID) {
				t.Fatalf("step %d: List[%d] = %+v, model has vertex %d (present %v)", step, i, o, v, ok)
			}
			if v, ok := live.Vertex(o.ID); !ok || v != o.Vertex || view.Vertex(o.ID) != o.Vertex {
				t.Fatalf("step %d: Vertex(%d) = %d,%v / view %d, want %d", step, o.ID, v, ok, view.Vertex(o.ID), o.Vertex)
			}
		}
		if v, ok := live.Vertex(lastRemoved); ok || v != NoVertex || view.Vertex(lastRemoved) != NoVertex {
			t.Fatalf("step %d: removed id %d still resolves to %d", step, lastRemoved, v)
		}

		oracle, dense := slotOrderedOracle(t, net, view, model)
		p := Point{X: rng.Float64(), Y: rng.Float64()}
		got, want := view.NearestEuclidean(p, 7), oracle.NearestEuclidean(p, 7)
		for i := range want {
			want[i] = dense[want[i]]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: NearestEuclidean = %v, oracle %v", step, got, want)
		}
		q, k := randomVertex(), rng.Intn(10)+1
		radius := 0.05 + rng.Float64()/4
		for _, ae := range engines {
			for _, exact := range []bool{false, true} {
				var opts []Option
				if exact {
					opts = append(opts, WithExactDistances())
				}
				for m := MethodKNN; m <= MethodIER; m++ {
					mopts := append([]Option{WithMethod(m)}, opts...)
					got, err := ae.eng.Query(ctx, view, q, k, mopts...)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ae.eng.Query(ctx, oracle, q, k, mopts...)
					if err != nil {
						t.Fatal(err)
					}
					if got.Stats.SnapshotVersion != version {
						t.Fatalf("step %d: %v stamped version %d, want %d", step, m, got.Stats.SnapshotVersion, version)
					}
					sameAnswer(t, fmt.Sprintf("step %d, %s %v exact=%v q=%d k=%d", step, ae.name, m, exact, q, k), got, want, dense)
				}
				got, err := ae.eng.WithinDistance(ctx, view, q, radius, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ae.eng.WithinDistance(ctx, oracle, q, radius, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswer(t, fmt.Sprintf("step %d, %s range exact=%v q=%d r=%v", step, ae.name, exact, q, radius), got, want, dense)
			}
		}
	}
	if !gaps {
		t.Fatal("no sampled version had a free slot below its bound")
	}
}

// TestLiveSnapshotExactUnderChurn is the oracle property test of the PR: 8
// mutators interleave Insert/Remove/Move while 8 readers pin snapshots and
// run kNN + range queries on every backend variant (monolithic, sharded,
// paged from memory, from a file and through mmap). Every pinned result must be EXACT against
// a Floyd-Warshall oracle evaluated over that snapshot's own object table —
// a reader seeing a half-applied mutation shows up as a wrong distance, a
// shared-state bug as a -race report (scripts/ci.yml runs this package with
// the detector on).
func TestLiveSnapshotExactUnderChurn(t *testing.T) {
	net := testNetwork(t)
	ox, err := oracle.BuildExplicitPaths(net.g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const (
		writers      = 8
		readers      = 8
		opsPerWriter = 120
		readsEach    = 25
		k            = 5
		radius       = 0.3
	)
	for _, ae := range allocEngines(t, net) {
		t.Run(ae.name, func(t *testing.T) {
			live, err := NewLiveObjects(net, LiveObjectsOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			// Durable seed objects no mutator ever touches, so no snapshot is
			// empty and every query has at least k candidates.
			for v := 0; v < net.NumVertices(); v += 10 {
				if _, _, err := live.Insert(VertexID(v)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000*w + 7)))
					var mine []int32 // ids this mutator inserted and still owns
					for i := 0; i < opsPerWriter; i++ {
						switch rng.Intn(3) {
						case 0:
							id, _, err := live.Insert(VertexID(rng.Intn(net.NumVertices())))
							if err != nil {
								t.Error(err)
								return
							}
							mine = append(mine, id)
						case 1:
							if len(mine) > 0 {
								if _, err := live.Move(mine[rng.Intn(len(mine))], VertexID(rng.Intn(net.NumVertices()))); err != nil {
									t.Error(err)
									return
								}
							}
						case 2:
							if len(mine) > 0 {
								j := rng.Intn(len(mine))
								if _, err := live.Remove(mine[j]); err != nil {
									t.Error(err)
									return
								}
								mine = append(mine[:j], mine[j+1:]...)
							}
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(2000*r + 11)))
					var lastVer uint64
					type pinnedRead struct {
						view      *ObjectSet
						q         VertexID
						neighbors []Neighbor
					}
					var held []pinnedRead
					for i := 0; i < readsEach; i++ {
						view := live.View()
						if view.Version() < lastVer {
							t.Errorf("reader %d: version went backwards (%d after %d)", r, view.Version(), lastVer)
							return
						}
						lastVer = view.Version()
						// The pinned snapshot's own object table is the ground
						// truth the oracle scores against — NOT the store's
						// current state, which the mutators keep changing.
						objects := view.objs.Members()
						q := VertexID(rng.Intn(net.NumVertices()))
						ds := make([]float64, len(objects))
						for j, o := range objects {
							ds[j] = ox.Distance(q, o.Vertex)
						}
						sort.Float64s(ds)

						res, err := ae.eng.Query(ctx, view, q, k, WithExactDistances())
						if err != nil {
							t.Error(err)
							return
						}
						if res.Stats.SnapshotVersion != view.Version() {
							t.Errorf("reader %d: result stamped %d, view pinned %d", r, res.Stats.SnapshotVersion, view.Version())
							return
						}
						want := k
						if want > len(objects) {
							want = len(objects)
						}
						if len(res.Neighbors) != want {
							t.Errorf("reader %d: %d neighbors, want %d", r, len(res.Neighbors), want)
							return
						}
						for j, n := range res.Neighbors {
							if math.Abs(n.Dist-ds[j]) > 1e-9 {
								t.Errorf("reader %d q=%d version %d: rank %d dist %v, oracle %v",
									r, q, view.Version(), j, n.Dist, ds[j])
								return
							}
							// The view's id table is built here, on first use,
							// while the mutators derive successors from it.
							if v := view.Vertex(n.ID); v != n.Vertex {
								t.Errorf("reader %d version %d: Vertex(%d) = %d, the neighbor sits on %d",
									r, view.Version(), n.ID, v, n.Vertex)
								return
							}
						}
						// So is its vertex table, which only the expansion
						// baselines read.
						ine, err := ae.eng.Query(ctx, view, q, k, WithMethod(MethodINE))
						if err != nil {
							t.Error(err)
							return
						}
						for j, n := range ine.Neighbors {
							if len(ine.Neighbors) != want || math.Abs(n.Dist-ds[j]) > 1e-9 {
								t.Errorf("reader %d q=%d version %d: INE rank %d of %d dist %v, oracle %v",
									r, q, view.Version(), j, len(ine.Neighbors), n.Dist, ds[j])
								return
							}
						}
						// A version pinned a few reads ago answers as it did
						// then, whatever has been published since.
						held = append(held, pinnedRead{view, q, res.Neighbors})
						if len(held) > 3 {
							old := held[0]
							held = held[1:]
							again, err := ae.eng.Query(ctx, old.view, old.q, k, WithExactDistances())
							if err != nil {
								t.Error(err)
								return
							}
							if !slices.Equal(again.Neighbors, old.neighbors) {
								t.Errorf("reader %d q=%d: version %d answered %+v, now %+v",
									r, old.q, old.view.Version(), old.neighbors, again.Neighbors)
								return
							}
						}

						rres, err := ae.eng.WithinDistance(ctx, view, q, radius, WithExactDistances())
						if err != nil {
							t.Error(err)
							return
						}
						lo, hi := 0, 0
						for _, d := range ds {
							if d < radius-1e-9 {
								lo++
							}
							if d <= radius+1e-9 {
								hi++
							}
						}
						if len(rres.Neighbors) < lo || len(rres.Neighbors) > hi {
							t.Errorf("reader %d q=%d version %d: range found %d objects, oracle says [%d,%d]",
								r, q, view.Version(), len(rres.Neighbors), lo, hi)
							return
						}
						for _, n := range rres.Neighbors {
							if n.Dist > radius+1e-9 || math.Abs(ox.Distance(q, n.Vertex)-n.Dist) > 1e-9 {
								t.Errorf("reader %d q=%d version %d: range object %d at %v (oracle %v)",
									r, q, view.Version(), n.ID, n.Dist, ox.Distance(q, n.Vertex))
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}

// TestWatchDeltas drives Engine.Watch through the full mutation vocabulary
// and checks the delta invariant after every event: applying Added/Changed/
// Removed to the previous neighbor map must reproduce the event's own
// Neighbors exactly — whatever interleaving the store publishes.
func TestWatchDeltas(t *testing.T) {
	net := testNetwork(t)
	eng := testIndex(t, net).Engine()
	live, err := NewLiveObjects(net, LiveObjectsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan WatchEvent, 64)
	errc := make(chan error, 1)
	go func() {
		for ev, err := range eng.Watch(ctx, live, 0, 4) {
			if err != nil {
				errc <- err
				return
			}
			events <- ev
		}
		errc <- nil
	}()

	state := make(map[int32]float64) // reconstructed from deltas
	// waitFor consumes events (validating the delta invariant on each) until
	// one pinning at least minVersion arrives.
	waitFor := func(minVersion uint64) WatchEvent {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			select {
			case ev := <-events:
				for _, n := range ev.Added {
					if _, dup := state[n.ID]; dup {
						t.Fatalf("version %d: Added %d already present", ev.Version, n.ID)
					}
					state[n.ID] = n.Dist
				}
				for _, n := range ev.Changed {
					if _, ok := state[n.ID]; !ok {
						t.Fatalf("version %d: Changed %d was not present", ev.Version, n.ID)
					}
					state[n.ID] = n.Dist
				}
				for _, id := range ev.Removed {
					if _, ok := state[id]; !ok {
						t.Fatalf("version %d: Removed %d was not present", ev.Version, id)
					}
					delete(state, id)
				}
				if len(state) != len(ev.Neighbors) {
					t.Fatalf("version %d: deltas rebuild %d neighbors, event has %d", ev.Version, len(state), len(ev.Neighbors))
				}
				for _, n := range ev.Neighbors {
					if d, ok := state[n.ID]; !ok || d != n.Dist {
						t.Fatalf("version %d: delta state has %d at %v, event at %v", ev.Version, n.ID, d, n.Dist)
					}
				}
				if ev.Version >= minVersion {
					return ev
				}
			case err := <-errc:
				t.Fatalf("watch ended early: %v", err)
			case <-deadline:
				t.Fatalf("no event pinning version >= %d", minVersion)
			}
		}
	}

	// Initial event: the empty world is a result, not an error.
	if ev := waitFor(0); len(ev.Neighbors) != 0 {
		t.Fatalf("initial event over an empty world: %+v", ev)
	}
	id0, ver, err := live.Insert(3)
	if err != nil {
		t.Fatal(err)
	}
	if ev := waitFor(ver); len(ev.Neighbors) != 1 || ev.Neighbors[0].ID != id0 {
		t.Fatalf("after first insert: %+v", ev)
	}
	id1, ver, err := live.Insert(7)
	if err != nil {
		t.Fatal(err)
	}
	if ev := waitFor(ver); len(ev.Neighbors) != 2 {
		t.Fatalf("after second insert: %+v", ev)
	}
	ver, err = live.Move(id0, 12)
	if err != nil {
		t.Fatal(err)
	}
	ev := waitFor(ver)
	found := false
	for _, n := range ev.Neighbors {
		if n.ID == id0 && n.Vertex == 12 {
			found = true
		}
	}
	if !found {
		t.Fatalf("after move, id %d not reported at vertex 12: %+v", id0, ev)
	}
	ver, err = live.Remove(id1)
	if err != nil {
		t.Fatal(err)
	}
	ev = waitFor(ver)
	for _, n := range ev.Neighbors {
		if n.ID == id1 {
			t.Fatalf("removed id %d still in the top-k: %+v", id1, ev)
		}
	}

	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("watch ended with %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch did not end after cancellation")
	}
}

// TestWatchValidation: the argument checks fire as the stream's first (and
// only) element.
func TestWatchValidation(t *testing.T) {
	net := testNetwork(t)
	eng := testIndex(t, net).Engine()
	live, err := NewLiveObjects(net, LiveObjectsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ctx := context.Background()
	firstErr := func(live *LiveObjects, q VertexID, k int) error {
		for _, err := range eng.Watch(ctx, live, q, k) {
			return err
		}
		return nil
	}
	if err := firstErr(nil, 0, 3); !errors.Is(err, ErrNilObjects) {
		t.Fatalf("nil live: %v", err)
	}
	if err := firstErr(live, -1, 3); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("bad q: %v", err)
	}
	if err := firstErr(live, 0, 0); !errors.Is(err, ErrBadK) {
		t.Fatalf("bad k: %v", err)
	}
}
