package silc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"silc/internal/core"
	"silc/internal/knn"
)

// TestEngineOneHandle drives the one index handle through its life on one
// cell and four: Build with Partitions 1 and 4, WriteFile, then open the
// file through each page source (OpenEngineAt's positioned reads,
// OpenEngine's copies out of the mapping). Every engine must report its
// statistics and partitioning like the built one, and its Refiner must
// converge to Distance on a cross-cell and a same-cell pair, reporting the
// destination as its via vertex wherever it walks one cell's path (always
// on one cell, never across cells). Every engine backs a cluster node.
func TestEngineOneHandle(t *testing.T) {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := net.NumVertices()
	ctx := context.Background()
	var pairs map[string][2]VertexID // chosen on the 4-cell build
	for _, parts := range []int{4, 1} {
		built, err := Build(net, BuildOptions{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		if parts == 4 {
			pairs = cellPairs(t, built)
		}
		path := filepath.Join(t.TempDir(), "ix.silcpg")
		info, err := built.WriteFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Total == 0 || info.TotalBlocks != built.Stats().TotalBlocks {
			t.Fatalf("P=%d: WriteFile reported %+v for %d blocks", parts, info, built.Stats().TotalBlocks)
		}
		engines := map[string]*Engine{"built": built}
		for _, src := range pageSources {
			eng := openSource(t, path, src, 0)
			t.Cleanup(func() { eng.Close() })
			engines[src] = eng
		}
		want := built.Stats()
		for name, eng := range engines {
			tag := fmt.Sprintf("P=%d/%s", parts, name)
			st := eng.Stats()
			if st.Vertices != n || st.Edges != net.NumEdges() || st.TotalBlocks != want.TotalBlocks || st.TotalBlocks == 0 {
				t.Fatalf("%s: stats %+v, built %+v", tag, st.BuildStats, want.BuildStats)
			}
			if st.Sharded == nil || st.Sharded.Partitions != parts {
				t.Fatalf("%s: sharded stats %+v", tag, st.Sharded)
			}
			if got := eng.NumPartitions(); got != parts {
				t.Fatalf("%s: NumPartitions = %d", tag, got)
			}
			for v := VertexID(0); int(v) < n; v++ {
				if got := eng.PartitionOf(v); got != built.PartitionOf(v) || got < 0 || got >= parts {
					t.Fatalf("%s: PartitionOf(%d) = %d, built says %d", tag, v, got, built.PartitionOf(v))
				}
			}
			for kind, p := range pairs {
				want, err := eng.Distance(ctx, p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				r, err := eng.NewRefiner(p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; !r.Done(); i++ {
					if i > n {
						t.Fatalf("%s %s: refiner did not converge in %d steps", tag, kind, n)
					}
					r.Step()
				}
				if iv := r.Interval(); iv.Lo != want || iv.Hi != want || r.Steps() == 0 {
					t.Fatalf("%s %s: refined to %+v in %d steps, Distance = %v", tag, kind, iv, r.Steps(), want)
				}
				if v, d, ok := r.Via(); ok && (v != p[1] || d != want || kind == "cross-cell" && parts > 1) || !ok && parts == 1 {
					t.Fatalf("%s %s: Via = %d, %v, %v", tag, kind, v, d, ok)
				}
			}
			if _, err := eng.NewRefiner(0, VertexID(n)); !errors.Is(err, ErrVertexRange) {
				t.Fatalf("%s: NewRefiner out of range: %v", tag, err)
			}
			manifest := &ClusterManifest{Nodes: []ClusterNodeSpec{{Name: "a", Addr: "http://127.0.0.1:1", Cells: []int{0, 1, 2, 3}[:parts]}}}
			if _, err := NewClusterNode(eng, manifest, "a"); err != nil {
				t.Fatalf("%s: NewClusterNode err = %v", tag, err)
			}
		}
	}
}

// cellPairs picks, on a partitioned engine, a pair of vertices in different
// cells and a pair in one cell, neither adjacent.
func cellPairs(t *testing.T, eng *Engine) map[string][2]VertexID {
	t.Helper()
	out := map[string][2]VertexID{}
	n := VertexID(eng.Network().NumVertices())
	for u := VertexID(0); u < n; u++ {
		for v := n - 1; v > u+1; v-- {
			kind := "cross-cell"
			if eng.PartitionOf(u) == eng.PartitionOf(v) {
				kind = "same-cell"
			}
			if _, ok := out[kind]; !ok {
				out[kind] = [2]VertexID{u, v}
			}
		}
	}
	if len(out) != 2 {
		t.Fatalf("no pair of each kind: %v", out)
	}
	return out
}

// TestOpenValidatesCacheFraction opens a monolithic and a 2-cell image
// through both openers: a NaN, infinite or negative cache fraction is an
// error that names the value, 0 sizes the pool at 5% of the image's block
// pages, fractions in (0, 1] size it as before, and a larger one holds the
// whole image and no more.
func TestOpenValidatesCacheFraction(t *testing.T) {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 10, Cols: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2} {
		built, err := Build(net, BuildOptions{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ix.silcpg")
		info, err := built.WriteFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		openers := map[string]func(BuildOptions) (*Engine, error){
			"OpenEngine": func(o BuildOptions) (*Engine, error) { return OpenEngine(path, nil, o) },
			"OpenEngineAt": func(o BuildOptions) (*Engine, error) {
				return OpenEngineAt(bytes.NewReader(img), int64(len(img)), nil, o)
			},
		}
		for name, open := range openers {
			tag := fmt.Sprintf("P=%d/%s", parts, name)
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
				eng, err := open(BuildOptions{CacheFraction: bad})
				if err == nil {
					eng.Close()
					t.Fatalf("%s: cache fraction %v accepted", tag, bad)
				}
				if !strings.Contains(err.Error(), fmt.Sprint(bad)) {
					t.Fatalf("%s: cache fraction %v: error %q does not name the value", tag, bad, err)
				}
			}
			for _, c := range []struct{ fraction, share float64 }{
				{0, 0.05}, {0.05, 0.05}, {0.3, 0.3}, {1, 1}, {10000, 1},
			} {
				eng, err := open(BuildOptions{CacheFraction: c.fraction})
				if err != nil {
					t.Fatalf("%s: cache fraction %v: %v", tag, c.fraction, err)
				}
				total := info.BlockPages // the pages a query can read: every block page
				want := max(int(float64(total)*c.share), 1)
				if got := eng.sx.Pool().Capacity(); got != want {
					t.Errorf("%s: cache fraction %v: pool of %d pages, want %d of %d", tag, c.fraction, got, want, total)
				}
				eng.Close()
			}
		}
	}
}

// TestOneCellEngineIsTheMonolithicIndex checks that a one-cell engine, built
// in RAM and opened from its image, answers exactly as a raw core.Index over
// the same network: kNN and range neighbors with their distances, intervals
// and counters, Distance, DistanceInterval and ShortestPath, bit for bit, and
// a Refiner whose every step has the raw refiner's interval and via vertex.
func TestOneCellEngineIsTheMonolithicIndex(t *testing.T) {
	net := testNetwork(t)
	raw, err := core.Build(net.g, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "one.silcpg")
	if _, err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	opened := openSource(t, path, "ReaderAt", 0.05)
	t.Cleanup(func() { opened.Close() })
	n := net.NumVertices()
	var vs []VertexID // enough objects for an object index three levels deep
	for v := VertexID(1); int(v) < n; v += 3 {
		vs = append(vs, v)
	}
	objs := mustObjects(t, net, vs)
	same := func(a, b Interval) bool {
		return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) && math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
	}
	ctx := context.Background()
	for name, eng := range map[string]*Engine{"built": built, "opened": opened} {
		if eng.NumPartitions() != 1 {
			t.Fatalf("%s: %d partitions", name, eng.NumPartitions())
		}
		for q := VertexID(0); int(q) < n; q += 7 {
			for _, spec := range []knn.Spec{
				{K: 4, MaxDist: math.Inf(1)},
				{K: objs.Len(), Variant: knn.VariantRange, MaxDist: 0.3},
			} {
				want := knn.SearchSpec(raw, core.NewQueryContext(), objs.objs, q, spec)
				var got Result
				if spec.Variant == knn.VariantRange {
					got, err = eng.WithinDistance(ctx, objs, q, spec.MaxDist)
				} else {
					got, err = eng.Query(ctx, objs, q, spec.K)
				}
				if err != nil || want.Err != nil {
					t.Fatal(err, want.Err)
				}
				if len(got.Neighbors) != len(want.Neighbors) || got.Stats.Refinements != want.Stats.Refinements || got.Stats.Lookups != want.Stats.Lookups {
					t.Fatalf("%s q=%d %+v: %d neighbors, %d refinements, %d lookups; raw index %d, %d, %d", name, q, spec,
						len(got.Neighbors), got.Stats.Refinements, got.Stats.Lookups, len(want.Neighbors), want.Stats.Refinements, want.Stats.Lookups)
				}
				for i, w := range want.Neighbors {
					g := got.Neighbors[i]
					if g.ID != w.Object.ID || g.Exact != w.Exact || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) || !same(g.Interval, w.Interval) {
						t.Fatalf("%s q=%d %+v rank %d: %+v, raw index %+v", name, q, spec, i, g, w)
					}
				}
			}
			for v := VertexID(1); int(v) < n; v += 13 {
				d, err := eng.Distance(ctx, q, v)
				if err != nil {
					t.Fatal(err)
				}
				if want := core.ExactDistance(raw, nil, q, v); math.Float64bits(d) != math.Float64bits(want) {
					t.Fatalf("%s: Distance(%d, %d) = %v, raw index %v", name, q, v, d, want)
				}
				iv, err := eng.DistanceInterval(ctx, q, v)
				if err != nil {
					t.Fatal(err)
				}
				if want := raw.DistanceIntervalCtx(nil, q, v); !same(iv, want) {
					t.Fatalf("%s: DistanceInterval(%d, %d) = %+v, raw index %+v", name, q, v, iv, want)
				}
				p, err := eng.ShortestPath(ctx, q, v)
				if err != nil {
					t.Fatal(err)
				}
				if want := raw.PathCtx(nil, q, v); !slices.Equal(p, want) {
					t.Fatalf("%s: ShortestPath(%d, %d) = %v, raw index %v", name, q, v, p, want)
				}
				r, err := eng.NewRefiner(q, v)
				if err != nil {
					t.Fatal(err)
				}
				wr := raw.NewRefinerCtx(nil, q, v)
				for step := 0; ; step++ {
					gv, gd, ok := r.Via()
					wv, wd := wr.Via()
					if !ok || gv != wv || math.Float64bits(gd) != math.Float64bits(wd) || !same(r.Interval(), wr.Interval()) || r.Done() != wr.Done() {
						t.Fatalf("%s (%d, %d) step %d: interval %+v via %d at %v (ok %t), raw refiner %+v via %d at %v",
							name, q, v, step, r.Interval(), gv, gd, ok, wr.Interval(), wv, wd)
					}
					if r.Done() {
						break
					}
					r.Step()
					wr.Step()
				}
			}
		}
	}
}
