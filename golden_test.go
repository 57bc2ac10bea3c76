package silc_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silc"
)

// The golden files under testdata/golden pin both paged image layouts,
// monolithic and sharded, byte for byte: format drift — a changed field, a reordered
// section, a different rounding — breaks these tests loudly instead of
// silently invalidating every index file in the field. Regenerate with
// SILC_UPDATE_GOLDEN=1 go test -run Golden (and justify the diff in the
// PR).

// goldenNetwork returns the deterministic network all golden indexes are
// built over. It must never change.
func goldenNetwork(t testing.TB) *silc.Network {
	t.Helper()
	net, err := silc.GenerateGrid(8, 8)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return net
}

// checkGolden compares got against the named golden file, rewriting it
// under SILC_UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, ok := goldenFile(t, filepath.Join("testdata", "golden", name), got)
	if ok && !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: serialization drifted from the golden file: %d vs %d bytes, first difference at offset %d", name, len(got), len(want), i)
	}
}

// goldenFile returns the committed contents of the golden file at path and
// true. Under SILC_UPDATE_GOLDEN=1 it instead rewrites the file with got and
// returns false: there is nothing left to compare.
func goldenFile(t *testing.T, path string, got []byte) ([]byte, bool) {
	t.Helper()
	if os.Getenv("SILC_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return nil, false
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with SILC_UPDATE_GOLDEN=1): %v", err)
	}
	return want, true
}

// checkEngineEquivalence compares a loaded engine's answers against the
// freshly built reference on exact kNN and distances.
func checkEngineEquivalence(t *testing.T, ref, got *silc.Engine) {
	t.Helper()
	ctx := context.Background()
	net := ref.Network()
	n := net.NumVertices()
	objVerts := make([]silc.VertexID, 0, n/3)
	for v := 0; v < n; v += 3 {
		objVerts = append(objVerts, silc.VertexID(v))
	}
	objs, err := silc.NewObjectSet(net, objVerts)
	if err != nil {
		t.Fatal(err)
	}
	gotObjs, err := silc.NewObjectSet(got.Network(), objVerts)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < n; q += 5 {
		rr, err := ref.Query(ctx, objs, silc.VertexID(q), 4, silc.WithExactDistances())
		if err != nil {
			t.Fatalf("ref query %d: %v", q, err)
		}
		gr, err := got.Query(ctx, gotObjs, silc.VertexID(q), 4, silc.WithExactDistances())
		if err != nil {
			t.Fatalf("loaded query %d: %v", q, err)
		}
		if len(rr.Neighbors) != len(gr.Neighbors) {
			t.Fatalf("query %d: %d vs %d neighbors", q, len(gr.Neighbors), len(rr.Neighbors))
		}
		for i := range rr.Neighbors {
			if math.Abs(rr.Neighbors[i].Dist-gr.Neighbors[i].Dist) > 1e-12 {
				t.Fatalf("query %d neighbor %d: dist %v vs %v", q, i, gr.Neighbors[i].Dist, rr.Neighbors[i].Dist)
			}
		}
		d1, err := ref.Distance(ctx, silc.VertexID(q), silc.VertexID(n-1-q))
		if err != nil {
			t.Fatal(err)
		}
		d2, err := got.Distance(ctx, silc.VertexID(q), silc.VertexID(n-1-q))
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("distance %d->%d: %v vs %v", q, n-1-q, d2, d1)
		}
	}
}

// TestGoldenMonolithicPagedCompressed pins the monolithic paged format
// (SILCPG2): delta+varint block runs. The open → re-serialize round trip
// goes through the demand-paged store — every tree decoded from pages — and
// must reproduce the image byte for byte: the encoder is deterministic.
func TestGoldenMonolithicPagedCompressed(t *testing.T) {
	net := goldenNetwork(t)
	ix, err := silc.BuildIndex(net, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WritePaged(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "grid8.silcpg2", buf.Bytes())

	opened, err := silc.OpenIndexAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()), silc.BuildOptions{})
	if err != nil {
		t.Fatalf("opening golden: %v", err)
	}
	var re bytes.Buffer
	if _, err := opened.WritePaged(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), buf.Bytes()) {
		t.Fatal("open → re-serialize is not byte-identical")
	}
	checkEngineEquivalence(t, ix.Engine(), opened.Engine())
}

// TestGoldenShardedPagedCompressed pins the sharded paged format
// (SILCSPG2): every embedded cell image is a SILCPG2 image.
func TestGoldenShardedPagedCompressed(t *testing.T) {
	net := goldenNetwork(t)
	sx, err := silc.BuildShardedIndex(net, silc.ShardedBuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sx.WritePaged(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "grid8x4.silcspg2", buf.Bytes())

	opened, err := silc.OpenShardedIndexAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()), silc.ShardedBuildOptions{})
	if err != nil {
		t.Fatalf("opening golden: %v", err)
	}
	var re bytes.Buffer
	if _, err := opened.WritePaged(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), buf.Bytes()) {
		t.Fatal("open → re-serialize is not byte-identical")
	}
	checkEngineEquivalence(t, sx.Engine(), opened.Engine())
}

// TestGoldenLoadEngineSniffing opens every golden file through the
// format-sniffing opener and checks the right engine comes back — and that
// a supplied network of another shape is refused, naming both shapes.
func TestGoldenLoadEngineSniffing(t *testing.T) {
	net := goldenNetwork(t)
	moreVertices, err := silc.GenerateGrid(8, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The golden grid's 64 vertices on a ring: 128 directed edges, not 224.
	nb := silc.NewNetworkBuilder()
	for v := 0; v < net.NumVertices(); v++ {
		nb.AddVertex(net.Point(silc.VertexID(v)))
	}
	for v := 0; v < net.NumVertices(); v++ {
		nb.AddRoad(silc.VertexID(v), silc.VertexID((v+1)%net.NumVertices()), 1)
	}
	fewerEdges, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file    string
		sharded bool
	}{
		{"grid8.silcpg2", false},
		{"grid8x4.silcspg2", true},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", tc.file))
		if err != nil {
			t.Fatalf("%s: %v (regenerate with SILC_UPDATE_GOLDEN=1)", tc.file, err)
		}
		eng, err := silc.OpenEngineAt(bytes.NewReader(data), int64(len(data)), net, silc.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: OpenEngineAt: %v", tc.file, err)
		}
		if _, ok := eng.Sharded(); ok != tc.sharded {
			t.Fatalf("%s: sharded=%v, want %v", tc.file, ok, tc.sharded)
		}
		if eng.Network().NumVertices() != net.NumVertices() {
			t.Fatalf("%s: %d vertices, want %d", tc.file, eng.Network().NumVertices(), net.NumVertices())
		}
		for _, other := range []*silc.Network{moreVertices, fewerEdges} {
			want := fmt.Sprintf("embeds a network of %d vertices and %d edges, supplied network has %d and %d",
				net.NumVertices(), net.NumEdges(), other.NumVertices(), other.NumEdges())
			if _, err := silc.OpenEngineAt(bytes.NewReader(data), int64(len(data)), other, silc.BuildOptions{}); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: mismatched network: err = %v, want %q", tc.file, err, want)
			}
		}
	}
}
