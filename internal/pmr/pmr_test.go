package pmr

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
)

func randomObjects(n int, seed int64) []Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{
			ID:  int32(i),
			Pos: geom.Point{X: rng.Float64(), Y: rng.Float64()},
		}
	}
	return objs
}

// all returns every object in the tree, in traversal order.
func all(t *Tree) []Object {
	var out []Object
	var walk func(*Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			out = append(out, n.objects...)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

func TestInsertAndAll(t *testing.T) {
	objs := randomObjects(500, 1)
	tree := New(0)
	for _, o := range objs {
		tree.Insert(o)
	}
	if tree.Len() != len(objs) {
		t.Fatalf("Len = %d", tree.Len())
	}
	got := all(tree)
	if len(got) != len(objs) {
		t.Fatalf("All returned %d", len(got))
	}
	seen := make(map[int32]bool)
	for _, o := range got {
		if seen[o.ID] {
			t.Fatalf("duplicate object %d", o.ID)
		}
		seen[o.ID] = true
	}
}

func TestStructureInvariants(t *testing.T) {
	tree := New(4)
	for _, o := range randomObjects(300, 2) {
		tree.Insert(o)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		rect := n.Rect()
		if n.IsLeaf() {
			if len(n.objects) > 4 && n.cell.Level < geom.MaxLevel {
				t.Fatalf("overfull leaf: %d objects at level %d", len(n.objects), n.cell.Level)
			}
			for _, o := range n.objects {
				if !n.cell.ContainsCode(o.Pos.Code()) {
					t.Fatalf("object %d at %v outside leaf %v", o.ID, o.Pos, rect)
				}
			}
			return
		}
		if len(n.objects) != 0 {
			t.Fatal("interior node holds objects")
		}
		for i, c := range n.children {
			if c == nil {
				continue
			}
			if c.cell != n.cell.Child(i) {
				t.Fatalf("child %d cell mismatch", i)
			}
			walk(c)
		}
	}
	walk(tree.Root())
}

func TestNearestEuclideanMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		objs := randomObjects(rng.Intn(200)+1, int64(trial+10))
		tree := New(rng.Intn(12) + 1)
		for _, o := range objs {
			tree.Insert(o)
		}
		q := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		k := rng.Intn(len(objs)+5) + 1

		want := append([]Object(nil), objs...)
		sort.Slice(want, func(i, j int) bool {
			return q.DistSq(want[i].Pos) < q.DistSq(want[j].Pos)
		})
		if k < len(want) {
			want = want[:k]
		}
		got := tree.NearestEuclidean(q, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d want %d", trial, len(got), len(want))
		}
		for i := range got {
			// Compare by distance (ties may reorder ids).
			dg, dw := q.Dist(got[i].Pos), q.Dist(want[i].Pos)
			if dg != dw {
				t.Fatalf("trial %d: rank %d distance %v want %v", trial, i, dg, dw)
			}
		}
	}
}

func TestEuclideanBrowserIncremental(t *testing.T) {
	objs := randomObjects(100, 4)
	tree := New(6)
	for _, o := range objs {
		tree.Insert(o)
	}
	q := geom.Point{X: 0.5, Y: 0.5}
	b := tree.EuclideanBrowser(q)
	prev := -1.0
	count := 0
	for {
		_, d, ok := b.Next()
		if !ok {
			break
		}
		if d < prev {
			t.Fatalf("distances not non-decreasing: %v after %v", d, prev)
		}
		prev = d
		count++
	}
	if count != len(objs) {
		t.Fatalf("browser yielded %d of %d", count, len(objs))
	}
}

func TestEmptyTree(t *testing.T) {
	tree := New(0)
	if got := tree.NearestEuclidean(geom.Point{X: 0.5, Y: 0.5}, 3); len(got) != 0 {
		t.Fatalf("got %d from empty tree", len(got))
	}
	if tree.Len() != 0 || len(all(tree)) != 0 {
		t.Fatal("empty tree not empty")
	}
}

func TestDuplicatePositionsDoNotLoop(t *testing.T) {
	// Identical positions cannot be separated; the leaf at MaxLevel simply
	// exceeds capacity instead of splitting forever.
	tree := New(2)
	p := geom.Point{X: 0.25, Y: 0.25}
	for i := 0; i < 10; i++ {
		tree.Insert(Object{ID: int32(i), Pos: p})
	}
	if tree.Len() != 10 {
		t.Fatalf("Len = %d", tree.Len())
	}
	got := tree.NearestEuclidean(geom.Point{X: 0.3, Y: 0.3}, 10)
	if len(got) != 10 {
		t.Fatalf("retrieved %d", len(got))
	}
}

func TestFromVertices(t *testing.T) {
	g, err := graph.GenerateGrid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	vs := []graph.VertexID{3, 7, 11}
	tree := FromVertices(g, vs, 0)
	if tree.Len() != 3 {
		t.Fatalf("Len = %d", tree.Len())
	}
	for i, o := range all(tree) {
		_ = i
		if o.Pos != g.Point(o.Vertex) {
			t.Fatalf("object %d position mismatch", o.ID)
		}
	}
}

// sameTree fails unless a and b are node for node the same tree: equal cells,
// the same quadrants present, and equal leaf lists in the same order.
func sameTree(t *testing.T, step int, a, b *Node) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("step %d: node present on one side only (%v / %v)", step, a, b)
	}
	if a == nil {
		return
	}
	if a.cell != b.cell || a.IsLeaf() != b.IsLeaf() {
		t.Fatalf("step %d: cell %v leaf=%v, want cell %v leaf=%v", step, a.cell, a.IsLeaf(), b.cell, b.IsLeaf())
	}
	if a.IsLeaf() {
		if !slices.Equal(a.objects, b.objects) {
			t.Fatalf("step %d: leaf %v holds %v, want %v", step, a.cell, a.objects, b.objects)
		}
		return
	}
	for i := range a.children {
		sameTree(t, step, a.children[i], b.children[i])
	}
}

// TestPathCopyMatchesRebuild drives a long random With/Without history and
// checks the two promises of the path-copying tree: after any history it is
// the tree a from-scratch build over the same set produces, and a tree pinned
// before a step is untouched by it.
func TestPathCopyMatchesRebuild(t *testing.T) {
	const steps = 24000
	rng := rand.New(rand.NewSource(7))
	pile := geom.Point{X: 0.6180339, Y: 0.3141592} // MaxLevel pile-up
	hot := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.1, Y: 0.9}, pile}
	randomPos := func() geom.Point {
		switch r := rng.Intn(10); {
		case r < 2:
			return hot[rng.Intn(len(hot))] // duplicate positions
		case r < 4:
			// A tight cluster: deep splits and collapses.
			return geom.Point{X: 0.5 + rng.Float64()/4096, Y: 0.5 + rng.Float64()/4096}
		}
		return geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	members := func(tr *Tree) []Object {
		all := all(tr)
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
		return all
	}

	const capacity = 4
	tree := New(capacity)
	var live []Object // the model, ascending ID not required
	nextID := int32(0)
	target, maxPiled := 40, 0
	for step := 0; step < steps; step++ {
		if step%3000 == 0 {
			target = []int{40, 400, 5, 150, 0, 300, 60, 10}[step/3000]
		}
		pinned, pinnedWant := tree, members(tree)

		insert := len(live) == 0 || (len(live) < 2*target+1 && rng.Intn(2*target+1) >= len(live))
		if insert {
			o := Object{ID: nextID, Pos: randomPos()}
			if len(live) > 0 && rng.Intn(4) == 0 {
				// Reuse a low ID now and then, as the store's free slots do.
				o.ID = -1 - nextID
			}
			nextID++
			tree = tree.With(o)
			live = append(live, o)
		} else {
			i := rng.Intn(len(live))
			var ok bool
			if tree, ok = tree.Without(live[i]); !ok {
				t.Fatalf("step %d: Without(%v) found nothing", step, live[i])
			}
			if same, ok := tree.Without(live[i]); ok || same != tree {
				t.Fatalf("step %d: second Without(%v) removed something", step, live[i])
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}

		if tree.Len() != len(live) {
			t.Fatalf("step %d: Len %d, want %d", step, tree.Len(), len(live))
		}
		if got := members(pinned); !slices.Equal(got, pinnedWant) {
			t.Fatalf("step %d: the tree pinned before the step changed: %v, was %v", step, got, pinnedWant)
		}
		if step%250 == 0 || step == steps-1 {
			want := append([]Object(nil), live...)
			sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
			fresh := New(capacity)
			for _, o := range want {
				fresh.Insert(o)
			}
			sameTree(t, step, tree.Root(), fresh.Root())
			piled := 0
			for _, o := range live {
				if o.Pos == pile {
					piled++
				}
			}
			maxPiled = max(maxPiled, piled)
		}
	}
	if maxPiled <= capacity {
		t.Fatalf("at most %d objects shared the pile-up point at a compared step, want more than the capacity %d", maxPiled, capacity)
	}
}

// checkCellsHoldObjects fails unless every object below every node of tr has
// its vertex's Morton code inside the node's cell, and its cached position's
// code is that code — the premise the region lower bound rests on: a node's
// cell is the region a bound over it must cover. It returns the size of the
// largest leaf at MaxLevel.
func checkCellsHoldObjects(t *testing.T, g *graph.Network, step int, tr *Tree) int {
	t.Helper()
	deepest := 0
	var walk func(n *Node) []Object
	walk = func(n *Node) []Object {
		objs := n.Objects()
		if n.Cell().Level == geom.MaxLevel {
			deepest = max(deepest, len(objs))
		}
		for _, c := range n.Children() {
			if c != nil {
				objs = append(slices.Clip(objs), walk(c)...)
			}
		}
		for _, o := range objs {
			if code := g.Code(o.Vertex); !n.Cell().ContainsCode(code) || o.Pos.Code() != code {
				t.Fatalf("step %d: object %d at vertex %d (code %x, position code %x) below node %v",
					step, o.ID, o.Vertex, uint64(code), uint64(o.Pos.Code()), n.Cell())
			}
		}
		return objs
	}
	if got := len(walk(tr.Root())); got != tr.Len() {
		t.Fatalf("step %d: walked %d objects, tree holds %d", step, got, tr.Len())
	}
	return deepest
}

// TestNodeCellsHoldTheirObjects: for a bulk-built tree and after every step of
// a seeded With/Without history over network vertices — repeated vertices and
// a pile-up deeper than the bucket at MaxLevel included — every node's cell
// holds the codes of every object below it.
func TestNodeCellsHoldTheirObjects(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 16, Cols: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(11))
	const capacity = 3
	pile := graph.VertexID(n / 2)
	vs := []graph.VertexID{pile, pile, pile, pile, pile}
	for i := 0; i < 200; i++ {
		vs = append(vs, graph.VertexID(rng.Intn(n)))
	}
	if deepest := checkCellsHoldObjects(t, g, -1, FromVertices(g, vs, capacity)); deepest <= capacity {
		t.Fatalf("bulk build: largest MaxLevel leaf holds %d, want the pile-up above %d", deepest, capacity)
	}

	tree := New(capacity)
	var live []Object
	deepest := 0
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Intn(5) < 3 {
			v := graph.VertexID(rng.Intn(n))
			if rng.Intn(4) == 0 {
				v = pile
			}
			o := Object{ID: int32(step), Vertex: v, Pos: g.Point(v)}
			tree, live = tree.With(o), append(live, o)
		} else {
			i := rng.Intn(len(live))
			var ok bool
			if tree, ok = tree.Without(live[i]); !ok {
				t.Fatalf("step %d: Without(%v) found nothing", step, live[i])
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		deepest = max(deepest, checkCellsHoldObjects(t, g, step, tree))
	}
	if deepest <= capacity {
		t.Fatalf("history: largest MaxLevel leaf held %d, want the pile-up above %d", deepest, capacity)
	}
}
