package objstore

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/pmr"
)

func testGraph(t testing.TB) *graph.Network {
	t.Helper()
	g, err := graph.GenerateGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCRUDAndVersions(t *testing.T) {
	g := testGraph(t)
	s := New(g, Options{})
	defer s.Close()

	if s.Version() != 0 || s.Len() != 0 {
		t.Fatalf("fresh store: version %d len %d, want 0/0", s.Version(), s.Len())
	}
	empty := s.Snapshot()
	if empty.Objects.Len() != 0 {
		t.Fatal("version-0 snapshot is not empty")
	}

	a, v1 := s.Insert(3)
	b, v2 := s.Insert(9)
	if v1 != 1 || v2 != 2 {
		t.Fatalf("insert versions %d,%d, want 1,2", v1, v2)
	}
	if a == b {
		t.Fatal("ids not distinct")
	}
	snap := s.Snapshot()
	if snap.Version != 2 || len(snap.Objects.Members()) != 2 {
		t.Fatalf("snapshot version %d with %d members, want 2/2", snap.Version, len(snap.Objects.Members()))
	}
	if snap.Objects.ByID(a).Vertex != 3 || snap.Objects.ByID(b).Vertex != 9 {
		t.Fatal("snapshot objects on wrong vertices")
	}

	v3, ok := s.Move(a, 17)
	if !ok || v3 != 3 {
		t.Fatalf("move: ok=%v version=%d", ok, v3)
	}
	// The pinned snapshot must not see the move (immutability).
	if snap.Objects.ByID(a).Vertex != 3 {
		t.Fatal("pinned snapshot mutated by Move")
	}
	if got := s.Snapshot().Objects.ByID(a).Vertex; got != 17 {
		t.Fatalf("current snapshot has object a at %d, want 17", got)
	}

	v4, ok := s.Remove(b)
	if !ok || v4 != 4 {
		t.Fatalf("remove: ok=%v version=%d", ok, v4)
	}
	if s.Len() != 1 {
		t.Fatalf("len %d after remove, want 1", s.Len())
	}
	if _, ok := s.Remove(b); ok {
		t.Fatal("removing a removed id reported ok")
	}
	if _, ok := s.Move(b, 1); ok {
		t.Fatal("moving a removed id reported ok")
	}
	// Unknown-id mutations must not bump the version.
	if s.Version() != 4 {
		t.Fatalf("version %d after no-op mutations, want 4", s.Version())
	}
}

func TestExpireOlderThan(t *testing.T) {
	g := testGraph(t)
	clock := time.Unix(1000, 0)
	s := New(g, Options{Now: func() time.Time { return clock }})
	defer s.Close()

	old, _ := s.Insert(1)
	s.Insert(7)
	s.Insert(7)
	clock = clock.Add(time.Minute)
	fresh, _ := s.Insert(2)
	ver := s.Version()

	// However many objects a sweep removes, it is one version and one wake-up.
	woken := s.Changed()
	n, v := s.ExpireOlderThan(clock.Add(-30 * time.Second))
	if n != 3 || v != ver+1 || s.Version() != ver+1 {
		t.Fatalf("expire removed %d at version %d (store at %d), want 3 at %d", n, v, s.Version(), ver+1)
	}
	select {
	case <-woken:
	default:
		t.Fatal("the sweep did not close the change channel")
	}
	snap := s.Snapshot()
	if m := snap.Objects.Members(); len(m) != 1 || m[0].ID != fresh {
		t.Fatalf("survivors %v, want only id %d", m, fresh)
	}
	if _, ok := s.Move(old, 3); ok {
		t.Fatal("expired object still movable")
	}
	// Nothing left to expire: no version bump.
	if n, v := s.ExpireOlderThan(clock.Add(-30 * time.Second)); n != 0 || v != snap.Version {
		t.Fatalf("idle expire removed %d, version %d", n, v)
	}
	// A Move refreshes the TTL clock.
	clock = clock.Add(time.Hour)
	s.Move(fresh, 5)
	if n, _ := s.ExpireOlderThan(clock.Add(-time.Minute)); n != 0 {
		t.Fatal("moved object expired despite fresh touch")
	}
}

func TestSweeperExpires(t *testing.T) {
	g := testGraph(t)
	s := New(g, Options{TTL: 30 * time.Millisecond, SweepInterval: 10 * time.Millisecond})
	defer s.Close()

	s.Insert(1)
	deadline := time.Now().Add(5 * time.Second)
	for s.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never expired the object")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close stops the sweeper and is idempotent.
	s.Close()
	s.Close()
}

func TestChangedWakesOnPublish(t *testing.T) {
	g := testGraph(t)
	s := New(g, Options{})
	defer s.Close()

	ch := s.Changed()
	select {
	case <-ch:
		t.Fatal("change channel closed before any mutation")
	default:
	}
	s.Insert(0)
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("publish did not close the change channel")
	}
}

// TestScrapeDoesNotQueueBehindWriters holds the writers' mutex — as a
// mutation in progress does — and scrapes: Len, Version and the whole metric
// exposition read the published snapshot and must answer regardless.
func TestScrapeDoesNotQueueBehindWriters(t *testing.T) {
	s := New(testGraph(t), Options{})
	defer s.Close()
	s.Insert(3)
	s.Insert(4)

	s.mu.Lock()
	defer s.mu.Unlock()
	scraped := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		if err := s.Registry().WritePrometheus(&buf); err != nil {
			scraped <- err.Error()
			return
		}
		scraped <- fmt.Sprintf("len=%d version=%d\n%s", s.Len(), s.Version(), buf.String())
	}()
	select {
	case got := <-scraped:
		for _, want := range []string{"len=2 version=2", "silc_objstore_objects 2", "silc_objstore_version 2", "silc_objstore_snapshot_builds_total 2"} {
			if !strings.Contains(got, want) {
				t.Errorf("scrape misses %q:\n%s", want, got)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a scrape waited for the writers' mutex")
	}
}

// checkSnapshot fails unless every way of reading snap agrees with every
// other: Members ascending by distinct id, Len, the tree's objects, and the
// lazy ByID and AtVertex tables. It returns Members for later comparison.
func checkSnapshot(t *testing.T, snap *Snapshot) []pmr.Object {
	objs := snap.Objects
	members := objs.Members()
	if objs.Len() != len(members) || objs.Tree().Len() != len(members) || objs.SlotBound() < len(members) {
		t.Errorf("version %d: Len %d, tree %d, bound %d, %d members",
			snap.Version, objs.Len(), objs.Tree().Len(), objs.SlotBound(), len(members))
	}
	for i, m := range members {
		if i > 0 && m.ID <= members[i-1].ID {
			t.Errorf("version %d: member ids not ascending: %d after %d", snap.Version, m.ID, members[i-1].ID)
		}
		if got := objs.ByID(m.ID); got != m {
			t.Errorf("version %d: ByID(%d) = %+v, Members has %+v", snap.Version, m.ID, got, m)
		}
		here := false
		for _, slot := range objs.AtVertex(m.Vertex) {
			here = here || objs.Label(slot) == m.ID
		}
		if !here {
			t.Errorf("version %d: AtVertex(%d) misses id %d", snap.Version, m.Vertex, m.ID)
		}
	}
	inTree := treeObjects(objs.Tree())
	for i := range inTree {
		inTree[i].ID = objs.Label(inTree[i].ID)
	}
	slices.SortFunc(inTree, func(a, b pmr.Object) int { return cmp.Compare(a.ID, b.ID) })
	if !slices.Equal(inTree, members) {
		t.Errorf("version %d: the tree holds %v, Members %v", snap.Version, inTree, members)
	}
	return members
}

// treeObjects returns every object in t, in traversal order.
func treeObjects(t *pmr.Tree) []pmr.Object {
	var out []pmr.Object
	var walk func(*pmr.Node)
	walk = func(n *pmr.Node) {
		if n == nil {
			return
		}
		out = append(out, n.Objects()...)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(t.Root())
	return out
}

// TestConcurrentChurn hammers the store from many writers while readers pin
// snapshots; run under -race in CI. Every pinned snapshot must be
// self-consistent (checkSnapshot) with monotone versions per reader, and
// must stay what it was: each reader keeps the snapshot it pinned a while
// ago and reads it again — tables, tree and the lazily built side tables —
// after the writers have derived many successors from it.
func TestConcurrentChurn(t *testing.T) {
	g := testGraph(t)
	s := New(g, Options{})
	defer s.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int32
			for i := 0; i < 300; i++ {
				switch i % 3 {
				case 0:
					id, _ := s.Insert(graph.VertexID((w*7 + i) % g.NumVertices()))
					mine = append(mine, id)
				case 1:
					if len(mine) > 0 {
						s.Move(mine[i%len(mine)], graph.VertexID(i%g.NumVertices()))
					}
				case 2:
					if len(mine) > 2 {
						s.Remove(mine[0])
						mine = mine[1:]
					}
				}
			}
		}(w)
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			type pin struct {
				snap    *Snapshot
				members []pmr.Object
			}
			var held []pin
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				if snap.Version < last {
					t.Errorf("version went backwards: %d after %d", snap.Version, last)
					return
				}
				last = snap.Version
				held = append(held, pin{snap, checkSnapshot(t, snap)})
				if len(held) > 4 {
					old := held[0]
					held = held[1:]
					if again := checkSnapshot(t, old.snap); !slices.Equal(again, old.members) {
						t.Errorf("version %d changed while pinned: %v, was %v", old.snap.Version, again, old.members)
					}
				}
				if t.Failed() {
					return
				}
			}
		}()
	}
	// Writers finish first; then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("churn goroutines did not finish")
	}
}

// sameShape fails unless the live tree and the oracle's are the same tree up
// to slot numbering: equal cells, the same quadrants present, and leaves
// holding the same public ids (the oracle's slot i is ids[i]).
func sameShape(t *testing.T, step int, live *knn.Objects, a *pmr.Node, ids []int32, b *pmr.Node) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("step %d: node present on one side only", step)
	}
	if a == nil {
		return
	}
	if a.Cell() != b.Cell() || a.IsLeaf() != b.IsLeaf() {
		t.Fatalf("step %d: cell %v leaf=%v, oracle has cell %v leaf=%v", step, a.Cell(), a.IsLeaf(), b.Cell(), b.IsLeaf())
	}
	if !a.IsLeaf() {
		for i := range a.Children() {
			sameShape(t, step, live, a.Children()[i], ids, b.Children()[i])
		}
		return
	}
	var got, want []int32
	for _, o := range a.Objects() {
		got = append(got, live.Label(o.ID))
	}
	for _, o := range b.Objects() {
		want = append(want, ids[o.ID])
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: leaf %v holds ids %v, oracle %v", step, a.Cell(), got, want)
	}
}

// TestModelHistory replays a long random Insert/Move/Remove/Expire history
// against a plain id → vertex map and, every few steps, compares the
// published snapshot with the set knn.NewObjects builds from scratch over
// that map: members, lookups by id and by vertex, the Euclidean ranking and
// the quadtree itself. The population is driven up and down so that freed
// slots are handed out again and the slot bound both grows and falls. (The
// network-distance queries over such histories are compared in the root
// package's TestLiveModelHistory, where the engines are.)
func TestModelHistory(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 14, Cols: 14, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	s := New(g, Options{Now: func() time.Time { return clock }})
	defer s.Close()

	rng := rand.New(rand.NewSource(11))
	type modelEntry struct {
		vertex  graph.VertexID
		touched time.Time
	}
	model := make(map[int32]modelEntry)
	var ids []int32 // live ids, any order
	randomVertex := func() graph.VertexID { return graph.VertexID(rng.Intn(g.NumVertices())) }
	drop := func(i int) {
		delete(model, ids[i])
		ids[i] = ids[len(ids)-1]
		ids = ids[:len(ids)-1]
	}

	const steps = 6000
	target, peak := 0, 0
	var reused, gaps, shrank bool
	version := uint64(0)
	for step := 0; step < steps; step++ {
		if step%500 == 0 {
			target = []int{30, 300, 20, 700, 0, 120, 600, 40, 260, 10, 90, 400}[step/500]
		}
		clock = clock.Add(time.Second)
		before := s.Snapshot().Objects
		switch r := rng.Intn(100); {
		case r < 2 && len(ids) > 0:
			// Expire everything idle for longer than a random horizon.
			cutoff := clock.Add(-time.Duration(rng.Intn(3*len(ids)+1)) * time.Second)
			want := 0
			for i := len(ids) - 1; i >= 0; i-- {
				if model[ids[i]].touched.Before(cutoff) {
					drop(i)
					want++
				}
			}
			n, v := s.ExpireOlderThan(cutoff)
			if want > 0 {
				version++
			}
			if n != want || v != version {
				t.Fatalf("step %d: expire removed %d at version %d, want %d at %d", step, n, v, want, version)
			}
		case len(ids) == 0 || (r < 40 && len(ids) < 2*target) || len(ids) < target/2:
			v := randomVertex()
			id, ver := s.Insert(v)
			version++
			if _, dup := model[id]; dup || ver != version {
				t.Fatalf("step %d: insert returned id %d (dup=%v) at version %d, want %d", step, id, dup, ver, version)
			}
			model[id] = modelEntry{v, clock}
			ids = append(ids, id)
			reused = reused || before.SlotBound() == s.Snapshot().Objects.SlotBound()
		case r < 75 && len(ids) <= 2*target:
			id, v := ids[rng.Intn(len(ids))], randomVertex()
			if ver, ok := s.Move(id, v); !ok || ver != version+1 {
				t.Fatalf("step %d: move of %d: ok=%v version %d", step, id, ok, ver)
			}
			version++
			model[id] = modelEntry{v, clock}
		default:
			i := rng.Intn(len(ids))
			if ver, ok := s.Remove(ids[i]); !ok || ver != version+1 {
				t.Fatalf("step %d: remove of %d: ok=%v version %d", step, ids[i], ok, ver)
			}
			version++
			drop(i)
		}
		peak = max(peak, len(ids))
		snap := s.Snapshot()
		live := snap.Objects
		gaps = gaps || live.SlotBound() > live.Len()
		shrank = shrank || live.SlotBound() < before.SlotBound()
		if snap.Version != version || live.Len() != len(ids) || s.Len() != len(ids) || live.SlotBound() > peak {
			t.Fatalf("step %d: version %d len %d/%d bound %d; model version %d len %d peak %d",
				step, snap.Version, live.Len(), s.Len(), live.SlotBound(), version, len(ids), peak)
		}
		if step%25 != 0 && step != steps-1 {
			continue
		}

		// The oracle: a static set built from scratch over the model.
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		verts := make([]graph.VertexID, len(sorted))
		for i, id := range sorted {
			verts[i] = model[id].vertex
		}
		oracle := knn.NewObjects(g, verts)

		members := checkSnapshot(t, snap)
		if len(members) != len(sorted) {
			t.Fatalf("step %d: %d members, model has %d", step, len(members), len(sorted))
		}
		for i, m := range members {
			if m.ID != sorted[i] || m.Vertex != verts[i] || m.Pos != g.Point(verts[i]) {
				t.Fatalf("step %d: member %d is %+v, model has id %d on vertex %d", step, i, m, sorted[i], verts[i])
			}
		}
		if gone := live.ByID(s.nextID); gone.Vertex != graph.NoVertex {
			t.Fatalf("step %d: ByID of an id never issued = %+v", step, gone)
		}
		for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
			var got, want []int32
			for _, slot := range live.AtVertex(v) {
				got = append(got, live.Label(slot))
			}
			for _, slot := range oracle.AtVertex(v) {
				want = append(want, sorted[slot])
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: AtVertex(%d) = ids %v, oracle %v", step, v, got, want)
			}
		}
		sameShape(t, step, live, live.Tree().Root(), sorted, oracle.Tree().Root())

		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		k := rng.Intn(len(sorted)+3) + 1
		got, want := live.Tree().NearestEuclidean(p, k), oracle.Tree().NearestEuclidean(p, k)
		if len(got) != len(want) {
			t.Fatalf("step %d: NearestEuclidean returned %d, oracle %d", step, len(got), len(want))
		}
		for i := range got {
			dg, dw := p.Dist(got[i].Pos), p.Dist(want[i].Pos)
			if dg != dw {
				t.Fatalf("step %d: Euclidean rank %d at %v, oracle %v", step, i, dg, dw)
			}
			// The last rank may tie with an object the cut left out.
			distinct := i == 0 || p.Dist(want[i-1].Pos) != dw
			if i < len(want)-1 {
				distinct = distinct && p.Dist(want[i+1].Pos) != dw
			} else {
				distinct = distinct && len(want) == len(sorted)
			}
			if distinct && live.Label(got[i].ID) != sorted[want[i].ID] {
				t.Fatalf("step %d: Euclidean rank %d is id %d, oracle %d", step, i, live.Label(got[i].ID), sorted[want[i].ID])
			}
		}
	}
	if !reused || !gaps || !shrank {
		t.Fatalf("history never exercised: slot reuse %v, gaps below the bound %v, a falling bound %v", reused, gaps, shrank)
	}
}
