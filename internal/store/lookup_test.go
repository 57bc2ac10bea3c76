package store_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"silc/internal/core"
	"silc/internal/diskio"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
	"silc/internal/store"
)

// sameBlock compares two lookup answers bit for bit.
func sameBlock(a, b quadtree.Block) bool {
	return a.Cell == b.Cell && a.Color == b.Color &&
		math.Float32bits(a.LamLo) == math.Float32bits(b.LamLo) &&
		math.Float32bits(a.LamHi) == math.Float32bits(b.LamHi)
}

// TestLookupMatchesTree is the differential test of the single-block lookup.
// On both encodings, both page sources, and pools of one page, 5% and 100%,
// every vertex is probed with the code of every vertex plus codes no vertex
// has. Each probe goes through every path — a streamed first use, a
// materialized second use, the cached tree, and a streamed use again after
// an eviction — and each answer must equal, in its bits and in ok, the block
// Tree().FindIndex finds on a separate handle of the same image. Where no
// eviction interferes, the path each lookup took must be the one the state
// before it prescribes.
func TestLookupMatchesTree(t *testing.T) {
	g, ix := buildTestIndex(t, 10, 10)
	pg2, err := core.Build(g, core.BuildOptions{Compression: store.CompressionDelta})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	probes := make([]geom.Code, 0, n+18)
	for v := 0; v < n; v++ {
		probes = append(probes, g.Code(graph.VertexID(v)))
	}
	// Codes no vertex has: random grid cells (mostly in vertex-free area) and
	// the first code past the grid.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		probes = append(probes, geom.Code(rng.Uint32()))
	}
	probes = append(probes, 1<<(2*geom.MaxLevel), 1<<(2*geom.MaxLevel)-1)

	dir := t.TempDir()
	pools := []struct {
		name string
		opts store.OpenOptions
	}{
		{"pool=1page", store.OpenOptions{CachePages: 1}},
		{"pool=5%", store.OpenOptions{CacheFraction: 0.05}},
		{"pool=100%", store.OpenOptions{CacheFraction: 1}},
	}
	for _, enc := range []struct {
		name string
		img  []byte
	}{{"PG1", writeImage(t, ix)}, {"PG2", writeImage(t, pg2)}} {
		ref, err := store.Open(bytes.NewReader(enc.img), int64(len(enc.img)), store.OpenOptions{CacheFraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, enc.name)
		if err := os.WriteFile(path, enc.img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{"ReadAt", "Mmap"} {
			for _, pool := range pools {
				t.Run(enc.name+"/"+src+"/"+pool.name, func(t *testing.T) {
					open := store.OpenFile
					if src == "Mmap" {
						open = store.OpenMapped
					}
					s, err := open(path, pool.opts)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					paths := map[string]int{}
					for v := 0; v < n; v++ {
						vid := graph.VertexID(v)
						tree, err := ref.Tree(nil, vid)
						if err != nil {
							t.Fatal(err)
						}
						for pass := 0; pass < 3; pass++ {
							for i, c := range probes {
								if (i+pass)%3 == 0 {
									s.EvictVertex(vid)
									if cached, streamed := s.VertexState(vid); cached || streamed {
										t.Fatalf("vertex %d: an eviction left cached=%v streamed=%v", v, cached, streamed)
									}
								}
								cached, streamed := s.VertexState(vid)
								path := "streamed"
								switch {
								case s.BlockCount(vid) == 0:
									path = "empty"
								case cached:
									path = "cached"
								case streamed:
									path = "materialized"
								}
								paths[path]++
								var io diskio.Stats
								got, ok, err := s.Lookup(&io, vid, c)
								if err != nil {
									t.Fatalf("vertex %d probe %x (%s): %v", v, c, path, err)
								}
								var want quadtree.Block
								wi, wok := tree.FindIndex(c)
								if wok {
									want = tree.Blocks[wi]
								}
								if ok != wok || !sameBlock(got, want) {
									t.Fatalf("vertex %d probe %x (%s): Lookup %+v ok=%v, Tree().FindIndex %+v ok=%v",
										v, c, path, got, ok, want, wok)
								}
								if io.Evictions > 0 || path == "empty" {
									continue
								}
								nowCached, nowStreamed := s.VertexState(vid)
								if path == "streamed" && (nowCached || !nowStreamed) {
									t.Fatalf("vertex %d: a streamed lookup left cached=%v streamed=%v", v, nowCached, nowStreamed)
								}
								if path != "streamed" && !nowCached {
									t.Fatalf("vertex %d: a %s lookup left no cached tree", v, path)
								}
							}
						}
					}
					if paths["streamed"] == 0 || paths["materialized"] == 0 || paths["cached"] == 0 {
						t.Fatalf("paths taken %v: every path must be exercised", paths)
					}
				})
			}
		}
	}
}
