package silc

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"silc/internal/sssp"
	"silc/internal/store"
)

// tinyPool is a cache fraction that sizes every pool of these tests to
// one page, so nearly every touch misses and evicts.
const tinyPool = 1e-9

// corruptFixture is a 16×16 road map written as a paged image, its objects
// and the Dijkstra distances from every vertex.
type corruptFixture struct {
	net   *Network
	img   []byte
	info  ImageInfo
	objs  *ObjectSet
	ovs   []VertexID
	truth [][]float64
}

func newCorruptFixture(t *testing.T) *corruptFixture {
	t.Helper()
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 16, Cols: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fixture.silcpg")
	info, err := built.WriteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f := &corruptFixture{net: net, img: img, info: info}
	for v := 0; v < net.NumVertices(); v += 9 {
		f.ovs = append(f.ovs, VertexID(v))
	}
	f.objs = mustObjects(t, net, f.ovs)
	for v := range net.NumVertices() {
		f.truth = append(f.truth, sssp.Dijkstra(net.g, VertexID(v)).Dist)
	}
	return f
}

// write puts the image in a file of its own.
func (f *corruptFixture) write(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "image.silcpg")
	if err := os.WriteFile(path, f.img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// near reports whether got is the oracle's distance want.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*(1+want) }

// check runs a distance, a kNN and a range query from q on eng. Each must
// answer as Dijkstra does or fail with an error matching ErrCorruptImage.
// It returns how many failed.
func (f *corruptFixture) check(t *testing.T, eng *Engine, q VertexID) (failed int) {
	t.Helper()
	ctx := context.Background()
	corrupt := func(what string, err error) bool {
		if err == nil {
			return false
		}
		if !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("%s from %d: %v does not match ErrCorruptImage", what, q, err)
		}
		failed++
		return true
	}
	dst := VertexID((int(q)*37 + 11) % f.net.NumVertices())
	if d, err := eng.Distance(ctx, q, dst); !corrupt("Distance", err) && !near(d, f.truth[q][dst]) {
		t.Fatalf("Distance(%d, %d) = %v, Dijkstra %v", q, dst, d, f.truth[q][dst])
	}
	want := make([]float64, len(f.ovs))
	for i, o := range f.ovs {
		want[i] = f.truth[q][o]
	}
	slices.Sort(want)
	res, err := eng.Query(ctx, f.objs, q, 3, WithExactDistances())
	if !corrupt("kNN", err) {
		for i, n := range res.Neighbors {
			if !near(n.Dist, want[i]) {
				t.Fatalf("kNN(%d) rank %d = %v, Dijkstra %v", q, i, n.Dist, want[i])
			}
		}
	}
	const radius = 0.3
	res, err = eng.WithinDistance(ctx, f.objs, q, radius, WithExactDistances())
	if !corrupt("range", err) {
		got := make([]float64, len(res.Neighbors))
		for i, n := range res.Neighbors {
			got[i] = n.Dist
		}
		slices.Sort(got)
		in := want[:0:0]
		for _, d := range want {
			if d <= radius {
				in = append(in, d)
			}
		}
		if !slices.EqualFunc(got, in, near) {
			t.Fatalf("range(%d, %v) = %v, Dijkstra %v", q, radius, got, in)
		}
	}
	return failed
}

// TestTruncatedImageFailsCleanly truncates the image file to half its size
// under an open engine, behind a one-page pool, for the default open (a
// miss copies its page out of the mapping) and for Mmap (the frames alias
// the mapping). Touching a mapped page past the new end of the file faults:
// every distance, kNN and range query must answer as Dijkstra does or fail
// with ErrCorruptImage, and none may crash the process.
func TestTruncatedImageFailsCleanly(t *testing.T) {
	f := newCorruptFixture(t)
	for _, src := range []string{"File", "Mmap"} {
		t.Run(src, func(t *testing.T) {
			path := f.write(t)
			eng, err := OpenEngine(path, nil, BuildOptions{CacheFraction: tinyPool, Mmap: src == "Mmap"})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := os.Truncate(path, int64(len(f.img))/2); err != nil {
				t.Fatal(err)
			}
			failed := 0
			for q := 0; q < f.net.NumVertices(); q += 5 {
				failed += f.check(t, eng, VertexID(q))
			}
			if failed == 0 {
				t.Fatal("no query failed: the truncation was never read")
			}
			t.Logf("%d queries failed with ErrCorruptImage", failed)
		})
	}
}

// TestOverwrittenPageFailsOnItsNextMiss overwrites the first block page of
// the file in place under an engine that holds it in its one-page pool. The
// distance from vertex 0 to a neighbour reads only vertex 0's run, which
// lies on that page: while the page stays resident, hits serve the frame
// that passed its CRC; once another query has evicted it, the page's next
// miss reads the new bytes and fails with ErrCorruptImage, and the failed
// query's statistics report that miss.
func TestOverwrittenPageFailsOnItsNextMiss(t *testing.T) {
	f := newCorruptFixture(t)
	ctx := context.Background()
	targets, _ := f.net.g.Neighbors(0)
	w := VertexID(targets[0])
	blockOff := f.info.Total - f.info.CRCTable - f.info.BlockSection
	for _, src := range []string{"ReaderAt", "File"} {
		t.Run(src, func(t *testing.T) {
			path := f.write(t)
			var eng *Engine
			var err error
			if src == "File" {
				eng, err = OpenEngine(path, nil, BuildOptions{CacheFraction: tinyPool})
			} else {
				fh, ferr := os.Open(path)
				if ferr != nil {
					t.Fatal(ferr)
				}
				defer fh.Close()
				eng, err = OpenEngineAt(fh, int64(len(f.img)), nil, BuildOptions{CacheFraction: tinyPool})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			distance := func() (float64, QueryStats, error) {
				var st QueryStats
				d, err := eng.Distance(ctx, 0, w, WithStats(&st))
				return d, st, err
			}
			for range 2 {
				if _, _, err := distance(); err != nil {
					t.Fatal(err)
				}
			}

			page := make([]byte, store.PageSize)
			for i := range page {
				page[i] = 0xA5
			}
			fh, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.WriteAt(page, blockOff); err != nil {
				t.Fatal(err)
			}
			if err := fh.Close(); err != nil {
				t.Fatal(err)
			}

			d, st, err := distance()
			if err != nil || st.PageMisses != 0 || !near(d, f.truth[0][w]) {
				t.Fatalf("resident page: Distance(0, %d) = %v (Dijkstra %v), %d misses, err %v; want the verified frame's answer from hits",
					w, d, f.truth[0][w], st.PageMisses, err)
			}
			f.check(t, eng, VertexID(f.net.NumVertices()-1)) // evicts the page
			if _, st, err = distance(); !errors.Is(err, ErrCorruptImage) || st.PageMisses < 1 {
				t.Fatalf("after eviction: err %v, %d misses; want the page's miss to fail with ErrCorruptImage and be counted",
					err, st.PageMisses)
			}
		})
	}
}
