package silc

import (
	"context"
	"errors"
	"math"
	"math/rand"
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

// TestLiveSnapshotExactUnderChurn is the oracle property test of the PR: 8
// mutators interleave Insert/Remove/Move while 8 readers pin snapshots and
// run kNN + range queries on every backend variant (monolithic, sharded,
// paged in both encodings, mmap). Every pinned result must be EXACT against
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
						objects := view.objs.All()
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
