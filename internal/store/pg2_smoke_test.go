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

// TestPG2StoreRoundTrip writes an image with store.PlanImage, opens it through
// every page source (ReadAt, a Mapping of the bytes, OpenMapped on a real
// file), and checks each decoded tree is bit-identical to the in-RAM tree it
// was written from.
func TestPG2StoreRoundTrip(t *testing.T) {
	g, ix := buildTestIndex(t, 16, 16)
	treeFor := func(v graph.VertexID) *quadtree.Tree {
		tr, _ := ix.Tree(nil, v)
		return tr
	}
	var buf bytes.Buffer
	plan, err := store.PlanImage(store.Source{Graph: g, Tree: treeFor})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if _, err := plan.WriteTo(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	img2 := buf.Bytes()

	check := func(t *testing.T, s *store.Store) {
		t.Helper()
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
		s, err := store.Open(store.Mapping(img2), int64(len(img2)), store.OpenOptions{CacheFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if src := s.Source(); src != "mmapcopy" {
			t.Fatalf("store over a Mapping of the bytes fills frames by %q, want mmapcopy", src)
		}
		check(t, s)
		if rs := s.ReadStats(); rs.Reads == 0 {
			t.Error("store over a Mapping recorded no page reads")
		}
	})
	t.Run("mmap", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "grid.silcpg")
		if err := os.WriteFile(path, img2, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.OpenMapped(path, store.OpenOptions{CacheFraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		if src := s.Source(); src != "mmapcopy" {
			t.Fatalf("OpenMapped fills frames by %q, want mmapcopy", src)
		}
		check(t, s)
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}
