package silc

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"silc/internal/store"
)

var longTests = flag.Bool("long", false, "also run the 96×96 lattice in TestPagedHeapResident")

// TestPagedHeapResident measures what a paged engine keeps in RAM: road
// maps, seed 1, opened by OpenEngine at CacheFraction 0.05; the Go heap
// after two GCs, minus the heap before the open, right after the open and
// after a warm-up of one Distance from every vertex and 500 kNN. Besides
// the pool's frames, the store keeps only O(n) state — the embedded
// network, the extent table, the page CRC table — so the heap outside the
// pool, per vertex, must be flat within ±20% from the smallest lattice to
// the largest. The 48×48 and 64×64 lattices run in tier-1; go test -long
// adds 96×96, where the warm heap must also be at most 12% of the image.
func TestPagedHeapResident(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory skews heap sizes")
	}
	sides := []int{48, 64}
	if *longTests {
		sides = append(sides, 96)
	}
	var perVertex []float64
	for _, side := range sides {
		h := measurePagedHeap(t, side)
		t.Logf("%d×%d: %d vertices, image %d B, pool %d B; heap after open %d B (%.1f%%), warm %d B (%.1f%%); outside the pool %.1f B per vertex",
			side, side, h.n, h.image, h.pool, h.open, 100*float64(h.open)/float64(h.image), h.warm, 100*float64(h.warm)/float64(h.image), h.perVertex())
		perVertex = append(perVertex, h.perVertex())
		if side == 96 && float64(h.warm) > 0.12*float64(h.image) {
			t.Errorf("96×96: warm heap %d B is %.1f%% of the %d B image, want at most 12%%", h.warm, 100*float64(h.warm)/float64(h.image), h.image)
		}
	}
	for i, v := range perVertex[1:] {
		if r := v / perVertex[0]; r < 0.8 || r > 1.2 {
			t.Errorf("%d×%d: %.1f B per vertex outside the pool, %.2f× the %d×%d lattice's %.1f: not flat within ±20%%",
				sides[i+1], sides[i+1], v, r, sides[0], sides[0], perVertex[0])
		}
	}
}

// pagedHeap is one lattice's measurement: heap bytes after the open and
// after the warm-up, against the image's and the pool's bytes.
type pagedHeap struct {
	n                       int
	image, pool, open, warm int64
}

// perVertex is the warm heap outside the pool's frames, per vertex.
func (h pagedHeap) perVertex() float64 { return float64(h.warm-h.pool) / float64(h.n) }

// measurePagedHeap builds the side×side road map's image, then measures an
// engine opened on it.
func measurePagedHeap(t *testing.T, side int) pagedHeap {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("road%d.silcpg", side))
	n, objs := func() (int, *ObjectSet) {
		net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: side, Cols: side, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		built, err := Build(net, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := built.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		vs := make([]VertexID, net.NumVertices()/20)
		for i := range vs {
			vs[i] = VertexID(rng.Intn(net.NumVertices()))
		}
		return net.NumVertices(), mustObjects(t, net, vs)
	}()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	h := pagedHeap{n: n, image: info.Size()}
	before := settledHeap()
	e, err := OpenEngine(path, nil, BuildOptions{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h.open = settledHeap() - before
	h.pool = int64(e.sx.Pool().Capacity()) * store.PageSize
	ctx := context.Background()
	for v := 0; v < n; v++ {
		if _, err := e.Distance(ctx, VertexID(v), VertexID((v*7919+1)%n)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		if _, err := e.Query(ctx, objs, VertexID(rng.Intn(n)), 10); err != nil {
			t.Fatal(err)
		}
	}
	h.warm = settledHeap() - before
	runtime.KeepAlive(objs)
	return h
}

// settledHeap is the live heap after two collections.
func settledHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
