package main

import (
	"errors"
	"math"
	"sort"
	"testing"

	"silc/internal/graph"
	"silc/internal/sssp"
)

func testNetwork(t *testing.T) *graph.Network {
	t.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOracleDistancesMatchTheBuildersDijkstra(t *testing.T) {
	g := testNetwork(t)
	o := newOracle(g)
	for _, src := range []uint32{0, 17, uint32(g.NumVertices() - 1)} {
		want := sssp.Dijkstra(g, graph.VertexID(src)).Dist
		o.explore(src, func(int32, float64) bool { return true })
		for v := range want {
			got, ok := o.settled(int32(v))
			if !ok || math.Abs(got-want[v]) > 1e-12 {
				t.Fatalf("distance %d→%d = %v (settled %v), want %v", src, v, got, ok, want[v])
			}
		}
	}
}

// trueKNN answers a kNN query by brute force over a full distance row.
func trueKNN(g *graph.Network, vertexOf []int32, q uint32, k int) []neighbor {
	row := sssp.Dijkstra(g, graph.VertexID(q)).Dist
	var all []neighbor
	for id, v := range vertexOf {
		if v >= 0 {
			all = append(all, neighbor{ID: int32(id), Vertex: v, Dist: row[v], Exact: true})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	return all
}

func TestOracleChecksKNNAndRange(t *testing.T) {
	g := testNetwork(t)
	o := newOracle(g)
	vertexOf := genObjects(1, 0.2, g.NumVertices())
	objs := newObjects(vertexOf, g.NumVertices())
	const q, k = 40, 5
	all := trueKNN(g, vertexOf, q, k)

	good := &reply{Neighbors: append([]neighbor(nil), all[:k]...), Sorted: true}
	if err := o.checkKNN(objs, q, k, good); err != nil {
		t.Fatalf("the true kNN is rejected: %v", err)
	}

	// The one excused defect: a real object at its true distance where the
	// k-th should stand, however far out it is.
	var rank *rankError
	for _, far := range []neighbor{all[k+2], all[len(all)-1]} {
		swapped := &reply{Neighbors: append([]neighbor(nil), all[:k]...), Sorted: true}
		swapped.Neighbors[k-1] = far
		if err := o.checkKNN(objs, q, k, swapped); !errors.As(err, &rank) || rank.n != 1 {
			t.Errorf("a wrong k-th neighbor must be a rankError for one result, got %v", err)
		}
		swapped.Neighbors[k-1].Dist *= 1.01
		if err := o.checkKNN(objs, q, k, swapped); err == nil || errors.As(err, &rank) {
			t.Errorf("a wrong k-th neighbor at a wrong distance must be a plain error, got %v", err)
		}
	}

	// A batch counts its defective results and still fails on anything worse.
	right := reply{Neighbors: all[:knnK], Sorted: true}
	wrongKth := reply{Neighbors: append(append([]neighbor(nil), all[:knnK-1]...), all[knnK+2]), Sorted: true}
	batch := op{kind: opBatch, batch: []uint32{q, q, q}}
	if err := o.check(objs, batch, 0, &reply{Results: []reply{wrongKth, right, wrongKth}}); !errors.As(err, &rank) || rank.n != 2 {
		t.Errorf("a batch with two wrong k-th neighbors must be a rankError for two results, got %v", err)
	}
	if err := o.check(objs, batch, 0, &reply{Results: []reply{wrongKth, right, {Neighbors: all[:knnK-1]}}}); err == nil || errors.As(err, &rank) {
		t.Errorf("a batch with a short result must be a plain error, got %v", err)
	}

	twoWrong := &reply{Neighbors: append([]neighbor(nil), all[:k]...), Sorted: true}
	twoWrong.Neighbors[k-2], twoWrong.Neighbors[k-1] = all[k+1], all[k+2]
	if err := o.checkKNN(objs, q, k, twoWrong); err == nil || errors.As(err, &rank) {
		t.Errorf("two neighbors beyond the k-th distance must be a plain error, got %v", err)
	}

	unsorted := &reply{Neighbors: append([]neighbor(nil), all[:k]...), Sorted: true}
	unsorted.Neighbors[0], unsorted.Neighbors[k-1] = unsorted.Neighbors[k-1], unsorted.Neighbors[0]
	if err := o.checkKNN(objs, q, k, unsorted); err == nil || errors.As(err, &rank) {
		t.Errorf("a reply that claims an order it does not have must be a plain error, got %v", err)
	}

	// A distance not marked exact is the lower end of an interval.
	bounds := &reply{Neighbors: append([]neighbor(nil), all[:k]...), Sorted: true}
	bounds.Neighbors[2].Exact, bounds.Neighbors[2].Dist = false, 0.9*all[2].Dist
	if err := o.checkKNN(objs, q, k, bounds); err != nil {
		t.Errorf("a lower bound below the true distance is rejected: %v", err)
	}
	bounds.Neighbors[2].Dist = 1.1 * all[2].Dist
	if err := o.checkKNN(objs, q, k, bounds); err == nil || errors.As(err, &rank) {
		t.Errorf("a lower bound above the true distance must be a plain error, got %v", err)
	}

	lying := &reply{Neighbors: append([]neighbor(nil), all[:k]...), Sorted: true}
	lying.Neighbors[1].Dist *= 1.01
	if err := o.checkKNN(objs, q, k, lying); err == nil || errors.As(err, &rank) {
		t.Errorf("a wrong exact distance must be a plain error, got %v", err)
	}

	short := &reply{Neighbors: append([]neighbor(nil), all[:k-1]...), Sorted: true}
	if err := o.checkKNN(objs, q, k, short); err == nil || errors.As(err, &rank) {
		t.Errorf("a short reply must be a plain error, got %v", err)
	}

	radius := (all[k-1].Dist + all[k].Dist) / 2
	inRange := &reply{Neighbors: append([]neighbor(nil), all[:k]...)}
	if err := o.checkRange(objs, q, radius, inRange); err != nil {
		t.Fatalf("the true range result is rejected: %v", err)
	}
	if err := o.checkRange(objs, q, radius, &reply{Neighbors: all[:k-1]}); err == nil {
		t.Error("a range reply missing an object must be rejected")
	}
	if err := o.checkRange(objs, q, radius, &reply{Neighbors: all[:k+1]}); err == nil {
		t.Error("a range reply with an object outside the radius must be rejected")
	}
	if got := o.medianKthDistance(objs, []uint32{q}, k); got != all[k-1].Dist {
		t.Errorf("k-th distance %v, want %v", got, all[k-1].Dist)
	}
}

func TestOracleFollowsLiveMutations(t *testing.T) {
	g := testNetwork(t)
	o := newOracle(g)
	table := newLiveTable([]int32{3, 50, 90})
	objs := newObjects(table.vertexOf, g.NumVertices())
	objs.apply(table, op{kind: opInsert, b: 7}, 3)
	move := op{kind: opMove, a: 0, b: 8}
	objs.apply(table, move, table.target(move))
	del := op{kind: opDelete, a: 1}
	objs.apply(table, del, table.target(del))
	if objs.n != 3 {
		t.Fatalf("%d objects after insert, move, delete; want 3", objs.n)
	}
	all := trueKNN(g, table.vertexOf, 5, 3)
	if err := o.checkKNN(objs, 5, 3, &reply{Neighbors: all, Sorted: true}); err != nil {
		t.Errorf("kNN over the mutated table is rejected: %v", err)
	}
}
