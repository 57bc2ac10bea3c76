package silc

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

func buildShardedPair(t *testing.T) (*Network, *Engine, *Engine) {
	t.Helper()
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 16, Cols: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(net, BuildOptions{Partitions: 5})
	if err != nil {
		t.Fatal(err)
	}
	return net, mono, sharded
}

// TestShardedIndexMatchesMonolithic checks the public sharded surface
// end to end against the monolithic index (the exhaustive ground-truth
// property test lives in internal/partition).
func TestShardedIndexMatchesMonolithic(t *testing.T) {
	net, mono, sharded := buildShardedPair(t)
	n := net.NumVertices()
	if got := sharded.NumPartitions(); got != 5 {
		t.Fatalf("NumPartitions = %d, want 5", got)
	}
	st := sharded.Stats().Sharded
	if st.BoundaryVertices == 0 || st.CellBlocks == 0 {
		t.Fatalf("implausible sharded stats: %+v", st)
	}
	if st.CellBlocks >= mono.Stats().TotalBlocks {
		t.Fatalf("sharded holds %d Morton blocks, monolithic only %d — sharding should shrink block storage",
			st.CellBlocks, mono.Stats().TotalBlocks)
	}

	mq, sq := on(t, mono), on(t, sharded)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		md := mq.dist(u, v)
		sd := sq.dist(u, v)
		if math.Abs(md-sd) > 1e-9*(1+md) {
			t.Fatalf("Distance(%d,%d): mono %v sharded %v", u, v, md, sd)
		}
		iv := sq.interval(u, v)
		if iv.Lo > md+1e-9 || iv.Hi < md-1e-9 {
			t.Fatalf("interval [%v,%v] of (%d,%d) excludes %v", iv.Lo, iv.Hi, u, v, md)
		}
		a, b := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		if mq.closer(u, a, b) != sq.closer(u, a, b) {
			// Legitimate only on a distance tie.
			da, db := mq.dist(u, a), mq.dist(u, b)
			if math.Abs(da-db) > 1e-9*(1+da) {
				t.Fatalf("IsCloser(%d,%d,%d) differs without a tie (%v vs %v)", u, a, b, da, db)
			}
		}
	}

	objs := mustObjects(t, net, randomVertices(rng, n, n/10))
	for i := 0; i < 10; i++ {
		q := VertexID(rng.Intn(n))
		mr := mq.knnExact(objs, q, 5)
		sr := sq.knnExact(objs, q, 5)
		if len(mr.Neighbors) != len(sr.Neighbors) {
			t.Fatalf("kNN sizes differ at q=%d", q)
		}
		for j := range mr.Neighbors {
			if math.Abs(mr.Neighbors[j].Dist-sr.Neighbors[j].Dist) > 1e-9*(1+mr.Neighbors[j].Dist) {
				t.Fatalf("q=%d neighbor %d: mono %v sharded %v", q, j,
					mr.Neighbors[j].Dist, sr.Neighbors[j].Dist)
			}
			if !sr.Neighbors[j].Exact {
				t.Fatalf("WithExactDistances left an inexact distance at q=%d", q)
			}
		}
		// Browsing streams the same distances incrementally.
		next := sq.browse(objs, q)
		for j := 0; j < 5; j++ {
			nb, ok := next()
			if !ok {
				t.Fatalf("browser exhausted at %d", j)
			}
			if math.Abs(nb.Dist-mr.Neighbors[j].Dist) > 1e-9*(1+nb.Dist) {
				t.Fatalf("browser q=%d rank %d: %v, kNN says %v", q, j, nb.Dist, mr.Neighbors[j].Dist)
			}
		}
	}

	queries := randomVertices(rng, n, 40)
	batch := sq.batch(objs, queries, 3)
	if len(batch.Results) != len(queries) || batch.Stats.Queries != len(queries) {
		t.Fatalf("batch shape wrong: %+v", batch.Stats)
	}

	radius := mq.dist(VertexID(0), VertexID(n/2)) / 2
	mres := mq.within(objs, VertexID(0), radius)
	sres := sq.within(objs, VertexID(0), radius)
	if len(mres.Neighbors) != len(sres.Neighbors) {
		t.Fatalf("range sizes differ: mono %d sharded %d", len(mres.Neighbors), len(sres.Neighbors))
	}

	// Both indexes expose the unified serving engine.
	for _, e := range []*Engine{mono, sharded} {
		if e.Network().NumVertices() != n {
			t.Fatal("Engine.Network mismatch")
		}
	}
}

// TestShardedIndexPersistence reopens the sharded index's paged image both
// ways — fully resident over an in-memory reader and demand-paged from a
// file under t.TempDir() — and checks each answers bit-identically; the
// file reopen additionally reports its pool traffic.
func TestShardedIndexPersistence(t *testing.T) {
	net, _, sharded := buildShardedPair(t)
	var buf bytes.Buffer
	if _, err := sharded.WritePaged(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenEngineAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()), nil, BuildOptions{CacheFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.silcspg")
	if _, err := sharded.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenEngine(path, nil, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	want, lq, pq := on(t, sharded), on(t, loaded), on(t, paged)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		u := VertexID(rng.Intn(net.NumVertices()))
		v := VertexID(rng.Intn(net.NumVertices()))
		a := want.dist(u, v)
		if b := lq.dist(u, v); a != b {
			t.Fatalf("Distance(%d,%d) differs after reload: %v vs %v", u, v, a, b)
		}
		if b := pq.dist(u, v); a != b {
			t.Fatalf("Distance(%d,%d) differs on the paged image: %v vs %v", u, v, a, b)
		}
	}
	if io := loaded.IOStats(); io.PageReads != io.PageMisses || io.PageReads == 0 {
		t.Fatalf("fully resident reopen read a page other than on its first touch: %+v", io)
	}
	if io := paged.IOStats(); io.PageMisses == 0 || io.PageReads == 0 {
		t.Fatalf("disk-resident reload recorded no page traffic: %+v", io)
	}
	paged.ResetIOStats()
	if io := paged.IOStats(); io != (IOStats{}) {
		t.Fatalf("ResetIOStats left counters non-zero: %+v", io)
	}
}

func randomVertices(rng *rand.Rand, n, k int) []VertexID {
	out := make([]VertexID, k)
	for i := range out {
		out[i] = VertexID(rng.Intn(n))
	}
	return out
}
