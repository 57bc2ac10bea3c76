package partition

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/knn"
)

// buildTestSharded builds a sharded index; disk reopens it demand-paged
// from its paged image, behind the default 5% pool.
func buildTestSharded(t *testing.T, rows, cols, p int, seed int64, disk bool) (*graph.Network, *Sharded) {
	t.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, Options{Partitions: p})
	if err != nil {
		t.Fatal(err)
	}
	if disk {
		var img bytes.Buffer
		if _, err := s.WritePaged(&img); err != nil {
			t.Fatal(err)
		}
		if s, err = OpenPaged(bytes.NewReader(img.Bytes()), int64(img.Len()), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	return g, s
}

func TestKDCutBalanceAndDeterminism(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 20, Cols: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 5, 8} {
		a1, err := KDCut(g, p)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := KDCut(g, p)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for c := 0; c < p; c++ {
			nc := len(a1.Verts[c])
			total += nc
			if nc == 0 {
				t.Fatalf("P=%d: empty cell %d", p, c)
			}
			// Proportional kd-cut: cells within one vertex of each split's
			// proportional share stay within a factor ~2 of n/P.
			if nc > 2*g.NumVertices()/p+1 {
				t.Fatalf("P=%d: cell %d holds %d of %d vertices", p, c, nc, g.NumVertices())
			}
		}
		if total != g.NumVertices() {
			t.Fatalf("P=%d: cells cover %d of %d vertices", p, total, g.NumVertices())
		}
		for v := range a1.CellOf {
			if a1.CellOf[v] != a2.CellOf[v] {
				t.Fatalf("P=%d: KDCut not deterministic at vertex %d", p, v)
			}
		}
	}
	if _, err := KDCut(g, g.NumVertices()+1); err == nil {
		t.Fatal("KDCut accepted more partitions than vertices")
	}
}

// TestShardedConcurrentQueries hammers one shared disk-resident sharded
// index from many goroutines — run under -race in CI. Every query kind that
// threads a QueryContext through the cells participates.
func TestShardedConcurrentQueries(t *testing.T) {
	g, s := buildTestSharded(t, 14, 14, 6, 2, true)
	n := g.NumVertices()
	objVerts := make([]graph.VertexID, 0, n/4)
	rng := rand.New(rand.NewSource(1))
	for _, v := range rng.Perm(n)[:n/4] {
		objVerts = append(objVerts, graph.VertexID(v))
	}
	objs := knn.NewObjects(g, objVerts)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				u := graph.VertexID(rng.Intn(n))
				v := graph.VertexID(rng.Intn(n))
				qc := core.NewQueryContext()
				d := s.DistanceCtx(qc, u, v)
				iv := s.DistanceIntervalCtx(qc, u, v)
				if d < iv.Lo-1e-9 || d > iv.Hi+1e-9 {
					t.Errorf("distance %v outside interval [%v,%v]", d, iv.Lo, iv.Hi)
					return
				}
				if p := s.PathCtx(qc, u, v); len(p) == 0 {
					t.Errorf("empty path %d->%d", u, v)
					return
				}
				knn.SearchSpec(s, nil, objs, u, knn.UnboundedSpec(1+rng.Intn(5), knn.Variants[i%len(knn.Variants)]))
			}
		}(int64(w))
	}
	wg.Wait()
	if io := s.Pool().Stats(); io.Accesses() == 0 {
		t.Fatal("disk-resident sharded index recorded no page traffic")
	}
}
