package silc

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"silc/internal/diskio"
	"silc/internal/sssp"
	"silc/internal/store"
)

// tinyPool is a cache fraction that sizes every pool of these tests to
// one page, so nearly every touch misses and evicts.
const tinyPool = 1e-9

// corruptFixture is a 16×16 road map written as a paged image — monolithic,
// or of a build over some cells — its objects and the Dijkstra distances
// from every vertex.
type corruptFixture struct {
	net   *Network
	img   []byte
	info  ImageInfo
	objs  *ObjectSet
	ovs   []VertexID
	truth [][]float64
}

func newCorruptFixture(t *testing.T, partitions int) *corruptFixture {
	t.Helper()
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 16, Cols: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(net, BuildOptions{Partitions: partitions})
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
// under an engine of the default open (a miss copies its page out of the
// mapping), behind a one-page pool, for a monolithic image (File) and a
// 4-cell one (Sharded), whose cell stores copy out of their own sections of
// one mapping. Copying a mapped page past the new end of the file faults:
// every distance, kNN and range query must answer as Dijkstra does or fail
// with ErrCorruptImage, and none may crash the process.
func TestTruncatedImageFailsCleanly(t *testing.T) {
	for _, row := range []struct {
		name       string
		partitions int
	}{{"File", 1}, {"Sharded", 4}} {
		t.Run(row.name, func(t *testing.T) {
			f := newCorruptFixture(t, row.partitions)
			path := f.write(t)
			eng, err := OpenEngine(path, nil, BuildOptions{CacheFraction: tinyPool})
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

// flushPool evicts every page of a paged engine by reading as many fresh
// pages past its stores' as its pool holds, with a fill that reads
// nothing: an eviction by touching other pages, which no overwrite of the
// image can make fail.
func flushPool(e *Engine) {
	var beyond diskio.PageID
	for _, st := range e.pager.Stores() {
		beyond += diskio.PageID(st.BlockPages())
	}
	pool := e.pager.Pool()
	for i := range pool.Capacity() {
		pool.TouchEvict(beyond+diskio.PageID(i), nil)
	}
}

// TestOverwrittenPageFailsOnItsNextMiss overwrites block pages of the file
// in place under an engine that holds one of them in its one-page pool. On
// a monolithic image (ReaderAt: positioned reads; File: the default open,
// copies out of the mapping) it overwrites the first block page, and the
// distance from vertex 0 to a neighbour reads only vertex 0's run, which
// lies on that page. On a 4-cell image under the default open (Sharded),
// whose cell stores copy out of their own sections of one mapping, it
// overwrites the whole file, and the query is the first distance from a
// vertex to a neighbour that, repeated, reads one page. While the page
// stays resident, hits serve the frame that passed its CRC; once reads of
// other pages have evicted it (flushPool), the page's next miss reads the
// new bytes and fails its CRC with ErrCorruptImage — the decoder never sees
// the new bytes — and the failed query's statistics report that miss.
func TestOverwrittenPageFailsOnItsNextMiss(t *testing.T) {
	ctx := context.Background()
	for _, row := range []struct {
		name       string
		partitions int
	}{{"ReaderAt", 1}, {"File", 1}, {"Sharded", 4}} {
		t.Run(row.name, func(t *testing.T) {
			f := newCorruptFixture(t, row.partitions)
			path := f.write(t)
			var eng *Engine
			var err error
			if row.name == "ReaderAt" {
				fh, ferr := os.Open(path)
				if ferr != nil {
					t.Fatal(ferr)
				}
				defer fh.Close()
				eng, err = OpenEngineAt(fh, int64(len(f.img)), nil, BuildOptions{CacheFraction: tinyPool})
			} else {
				eng, err = OpenEngine(path, nil, BuildOptions{CacheFraction: tinyPool})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var u, w VertexID
			distance := func() (float64, QueryStats, error) {
				var st QueryStats
				d, err := eng.Distance(ctx, u, w, WithStats(&st))
				return d, st, err
			}
			// resident runs the query until its page stays in the pool:
			// false when a repeat still misses.
			resident := func() bool {
				targets, _ := f.net.g.Neighbors(u)
				w = VertexID(targets[0])
				for range 2 {
					if _, _, err := distance(); err != nil {
						t.Fatal(err)
					}
				}
				_, st, _ := distance()
				return st.PageMisses == 0
			}
			off, size := f.info.Total-f.info.CRCTable-f.info.BlockSection, int64(store.PageSize)
			if row.partitions > 1 {
				for off, size = 0, int64(len(f.img)); !resident(); u++ {
					if int(u) == f.net.NumVertices()-1 {
						t.Fatal("every repeated distance to a neighbour misses: no query reads one page")
					}
				}
			} else if !resident() {
				t.Fatalf("Distance(0, %d) misses on a repeat: vertex 0's run spans pages", w)
			}

			junk := make([]byte, size)
			for i := range junk {
				junk[i] = 0xA5
			}
			fh, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.WriteAt(junk, off); err != nil {
				t.Fatal(err)
			}
			if err := fh.Close(); err != nil {
				t.Fatal(err)
			}

			d, st, err := distance()
			if err != nil || st.PageMisses != 0 || !near(d, f.truth[u][w]) {
				t.Fatalf("resident page: Distance(%d, %d) = %v (Dijkstra %v), %d misses, err %v; want the verified frame's answer from hits",
					u, w, d, f.truth[u][w], st.PageMisses, err)
			}
			flushPool(eng)
			_, st, err = distance()
			if !errors.Is(err, ErrCorruptImage) || !strings.Contains(err.Error(), "checksum mismatch") || st.PageMisses < 1 {
				t.Fatalf("after eviction: err %v, %d misses; want the page's miss to fail its CRC, before any decode, with ErrCorruptImage and be counted",
					err, st.PageMisses)
			}
		})
	}
}
