package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"silc/internal/graph"
	"silc/internal/quadtree"
	"silc/internal/store"
)

// TestPG2StoreRoundTrip writes a CompressionDelta image, opens it through
// every page source (ReadAt, in-memory mapping, OpenMapped on a real file),
// and checks each decoded tree is bit-identical to the v1 decode.
func TestPG2StoreRoundTrip(t *testing.T) {
	g, ix := buildTestIndex(t, 16, 16)
	img1 := writeImage(t, ix)
	ref, err := store.Open(bytes.NewReader(img1), int64(len(img1)), store.OpenOptions{CacheFraction: 1})
	if err != nil {
		t.Fatalf("open v1: %v", err)
	}
	treeFor := func(v graph.VertexID) *quadtree.Tree {
		tr, err := ref.Tree(nil, v)
		if err != nil {
			t.Fatalf("ref tree %d: %v", v, err)
		}
		return tr
	}
	var buf bytes.Buffer
	n2, err := store.Write(&buf, store.Source{
		Graph: g, Radius: ref.Radius(), Lenient: ref.Lenient(),
		Compression: store.CompressionDelta, Tree: treeFor,
	})
	if err != nil {
		t.Fatalf("write v2: %v", err)
	}
	if ratio := float64(len(img1)) / float64(n2); ratio < 1.5 {
		t.Errorf("v2 image %d bytes vs v1 %d: ratio %.2f", n2, len(img1), ratio)
	} else {
		t.Logf("v1 %d bytes, v2 %d bytes, ratio %.2fx", len(img1), n2, ratio)
	}
	img2 := buf.Bytes()

	check := func(t *testing.T, s *store.Store) {
		t.Helper()
		if s.Compression() != store.CompressionDelta {
			t.Fatalf("compression %v, want delta", s.Compression())
		}
		for v := 0; v < g.NumVertices(); v++ {
			vid := graph.VertexID(v)
			got, err := s.Tree(nil, vid)
			if err != nil {
				t.Fatalf("tree %d: %v", v, err)
			}
			want := treeFor(vid)
			if len(got.Blocks) != len(want.Blocks) {
				t.Fatalf("vertex %d: %d blocks, want %d", v, len(got.Blocks), len(want.Blocks))
			}
			for i := range got.Blocks {
				if got.Blocks[i] != want.Blocks[i] {
					t.Fatalf("vertex %d block %d: %+v want %+v", v, i, got.Blocks[i], want.Blocks[i])
				}
			}
			if got.MinLambda != want.MinLambda {
				t.Fatalf("vertex %d minLambda %v want %v", v, got.MinLambda, want.MinLambda)
			}
		}
	}

	t.Run("readat", func(t *testing.T) {
		s, err := store.Open(bytes.NewReader(img2), int64(len(img2)), store.OpenOptions{CacheFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		check(t, s)
	})
	t.Run("bytes", func(t *testing.T) {
		s, err := store.Open(bytes.NewReader(img2), int64(len(img2)), store.OpenOptions{Mapped: img2, CacheFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Mapped() {
			t.Fatal("store over an in-memory image not mapped")
		}
		check(t, s)
		if rs := s.ReadStats(); rs.Reads == 0 {
			t.Error("mapped store recorded no first-touch reads")
		}
	})
	t.Run("mmap", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "grid.silcpg2")
		if err := os.WriteFile(path, img2, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.OpenMapped(path, store.OpenOptions{CacheFraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		check(t, s)
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}
