package silc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineOneHandle drives the one index handle through its life on both
// index kinds: Build with Partitions 1 and 4, WriteFile, then open the file
// through each page source (OpenEngineAt's positioned reads, OpenEngine's
// copies out of the mapping). Every engine must report its
// statistics and partitioning like the built one, and its Refiner must
// converge to Distance on a cross-cell and a same-cell pair. Only the
// partitioned engines may back a cluster node.
func TestEngineOneHandle(t *testing.T) {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := net.NumVertices()
	manifest := &ClusterManifest{Nodes: []ClusterNodeSpec{{Name: "a", Addr: "http://127.0.0.1:1", Cells: []int{0, 1, 2, 3}}}}
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
			if (st.Sharded != nil) != (parts > 1) || st.Sharded != nil && st.Sharded.Partitions != parts {
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
				if v, d, ok := r.Via(); ok != (parts == 1) || ok && (v != p[1] || d != want) {
					t.Fatalf("%s %s: Via = %d, %v, %v", tag, kind, v, d, ok)
				}
			}
			if _, err := eng.NewRefiner(0, VertexID(n)); !errors.Is(err, ErrVertexRange) {
				t.Fatalf("%s: NewRefiner out of range: %v", tag, err)
			}
			_, err := NewClusterNode(eng, manifest, "a")
			if (err == nil) != (parts > 1) {
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
				if got := eng.qx.Pool().Capacity(); got != want {
					t.Errorf("%s: cache fraction %v: pool of %d pages, want %d of %d", tag, c.fraction, got, want, total)
				}
				eng.Close()
			}
		}
	}
}
