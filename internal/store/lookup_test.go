package store_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

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
// On both page sources, and pools of one page, 5% and 100%,
// every vertex is probed with the code of every vertex plus codes no vertex
// has, over both paths a lookup takes: the full validating pass of a run
// that has passed none yet, and the validated lookup of one that has — some
// of them right after an eviction of the run's first page, so its pages are
// read again. Each answer must equal, in its bits and in ok, the block
// Tree().FindIndex finds on a separate handle of the same image. A full pass
// must decode the whole run and leave it validated; a validated lookup must
// decode exactly the blocks from its restart point to the first block
// ending past the probe.
func TestLookupMatchesTree(t *testing.T) {
	g, ix := buildTestIndex(t, 10, 10)
	n := g.NumVertices()
	probes := lookupProbes(g)

	pools := []struct {
		name string
		opts store.OpenOptions
	}{
		{"pool=1page", store.OpenOptions{CachePages: 1}},
		{"pool=5%", store.OpenOptions{CacheFraction: 0.05}},
		{"pool=100%", store.OpenOptions{CacheFraction: 1}},
	}
	img := writeImage(t, ix)
	ref, err := store.Open(bytes.NewReader(img), int64(len(img)), store.OpenOptions{CacheFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "img")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"ReadAt", "Mmap"} {
		for _, pool := range pools {
			t.Run("PG2/"+src+"/"+pool.name, func(t *testing.T) {
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
					for pass := 0; pass < 2; pass++ {
						for i, c := range probes {
							if (i+pass)%3 == 0 {
								s.EvictVertex(vid)
							}
							path := "full"
							switch {
							case s.BlockCount(vid) == 0:
								path = "empty"
							case s.Validated(vid):
								path = "validated"
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
							count := len(tree.Blocks)
							switch path {
							case "full":
								if io.BlocksDecoded != int64(count) {
									t.Fatalf("vertex %d probe %x (full): decoded %d of %d blocks", v, c, io.BlocksDecoded, count)
								}
							case "validated":
								if limit := validatedDecodes(tree, c); io.BlocksDecoded != limit {
									t.Fatalf("vertex %d probe %x (validated): decoded %d of %d blocks, want %d",
										v, c, io.BlocksDecoded, count, limit)
								}
							default:
								if io.BlocksDecoded != 0 {
									t.Fatalf("vertex %d probe %x (empty): decoded %d blocks", v, c, io.BlocksDecoded)
								}
							}
							if path != "empty" && !s.Validated(vid) {
								t.Fatalf("vertex %d: a %s lookup left its run unvalidated", v, path)
							}
						}
					}
				}
				if paths["full"] == 0 || paths["validated"] == 0 {
					t.Fatalf("paths taken %v: both paths must be exercised", paths)
				}
			})
		}
	}
}

// validatedDecodes is how many blocks a validated lookup of probe c decodes
// from a run of tree's blocks: exactly the blocks from the lookup's restart
// point — the last multiple of RestartEvery that has a point and is at most
// the index k of the first block ending past c (the run's length when none
// does) — through block k, or to the run's end.
func validatedDecodes(tree *quadtree.Tree, c geom.Code) int64 {
	count := len(tree.Blocks)
	k := count
	for i, b := range tree.Blocks {
		if b.Cell.End() > c {
			k = i
			break
		}
	}
	start := min(k/store.RestartEvery, (count-1)/store.RestartEvery) * store.RestartEvery
	return int64(min(k+1, count) - start)
}

// lookupProbes returns the code of every vertex of g plus codes no vertex
// has: random grid cells (mostly in vertex-free area), the last code of the
// grid and the first code past it.
func lookupProbes(g *graph.Network) []geom.Code {
	n := g.NumVertices()
	probes := make([]geom.Code, 0, n+18)
	for v := 0; v < n; v++ {
		probes = append(probes, g.Code(graph.VertexID(v)))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		probes = append(probes, geom.Code(rng.Uint32()))
	}
	return append(probes, 1<<(2*geom.MaxLevel), 1<<(2*geom.MaxLevel)-1)
}

// TestValidatedLookupConcurrent races lookups of the same runs on one store
// behind a one-page pool, over both page sources. First,
// for every vertex in turn, 8 goroutines released together make the first
// lookups of its run, so concurrent full passes race to record one run's
// restart points. Then the 8 goroutines probe every vertex in different
// orders, so validated lookups resuming from those points and evictions of
// each other's pages interleave. Every answer must equal Tree().FindIndex
// on a separate handle, and every run looked up must end validated. Run it
// under -race.
func TestValidatedLookupConcurrent(t *testing.T) {
	g, ix := buildTestIndex(t, 10, 10)
	n := g.NumVertices()
	probes := lookupProbes(g)
	img := writeImage(t, ix)
	ref, err := store.Open(bytes.NewReader(img), int64(len(img)), store.OpenOptions{CacheFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	trees := make([]*quadtree.Tree, n)
	for v := range trees {
		if trees[v], err = ref.Tree(nil, graph.VertexID(v)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "img")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"ReadAt", "Mmap"} {
		t.Run("PG2/"+src, func(t *testing.T) {
			open := store.OpenFile
			if src == "Mmap" {
				open = store.OpenMapped
			}
			s, err := open(path, store.OpenOptions{CachePages: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const workers = 8
			errs := make(chan error, workers*(n+1))
			check := func(v int, c geom.Code) error {
				got, ok, err := s.Lookup(nil, graph.VertexID(v), c)
				if err != nil {
					return fmt.Errorf("vertex %d probe %x: %v", v, c, err)
				}
				var want quadtree.Block
				wi, wok := trees[v].FindIndex(c)
				if wok {
					want = trees[v].Blocks[wi]
				}
				if ok != wok || !sameBlock(got, want) {
					return fmt.Errorf("vertex %d probe %x: Lookup %+v ok=%v, Tree().FindIndex %+v ok=%v",
						v, c, got, ok, want, wok)
				}
				return nil
			}
			var wg sync.WaitGroup
			for v := 0; v < n; v++ {
				start := make(chan struct{})
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						<-start
						if err := check(v, probes[(v+w*len(probes)/workers)%len(probes)]); err != nil {
							errs <- err
						}
					}(w)
				}
				close(start)
				wg.Wait()
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					order := rand.New(rand.NewSource(int64(w))).Perm(n)
					for pass := 0; pass < 2; pass++ {
						for _, v := range order {
							for i := w % 3; i < len(probes); i += 3 {
								if err := check(v, probes[i]); err != nil {
									errs <- err
									return
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				vid := graph.VertexID(v)
				if !s.Validated(vid) && s.BlockCount(vid) > 0 {
					t.Fatalf("vertex %d: looked up but never validated", v)
				}
			}
		})
	}
}

// TestLookupRecycledFramesConcurrent races the three ways a run is read —
// a Lookup on whatever path the vertex's state picks, a Tree, and a Lookup
// right after an eviction of the run's first page — from 8 goroutines over
// a 2-page pool on a ReadAt store. Nearly every touch evicts, so
// page frames are recycled constantly: a run gathered from a frame after
// the frame went back to the Pager would read another page's bytes. Every
// answer must equal the in-RAM tree's FindIndex and every tree the in-RAM
// tree.
func TestLookupRecycledFramesConcurrent(t *testing.T) {
	g, ix := buildTestIndex(t, 10, 10)
	n := g.NumVertices()
	probes := lookupProbes(g)
	t.Run("PG2", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "img")
		if err := os.WriteFile(path, writeImage(t, ix), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.OpenFile(path, store.OpenOptions{CachePages: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		trees := make([]*quadtree.Tree, n)
		for v := range trees {
			trees[v], _ = ix.Tree(nil, graph.VertexID(v))
		}
		const workers = 8
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				order := rand.New(rand.NewSource(int64(w))).Perm(n)
				for pass := 0; pass < 2; pass++ {
					for i, v := range order {
						vid := graph.VertexID(v)
						want := trees[v]
						if (w+i+pass)%3 == 1 {
							got, err := s.Tree(nil, vid)
							if err != nil {
								errs <- fmt.Errorf("vertex %d Tree: %v", v, err)
								return
							}
							if !sameTree(got, want) {
								errs <- fmt.Errorf("vertex %d Tree: %d blocks differ from the in-RAM tree's %d", v, len(got.Blocks), len(want.Blocks))
								return
							}
							continue
						}
						for j := (w + i) % 5; j < len(probes); j += 5 {
							if (w+i+pass)%3 == 2 {
								s.EvictVertex(vid) // the next Lookup reads the page again
							}
							c := probes[j]
							got, ok, err := s.Lookup(nil, vid, c)
							if err != nil {
								errs <- fmt.Errorf("vertex %d probe %x: %v", v, c, err)
								return
							}
							var wb quadtree.Block
							wi, wok := want.FindIndex(c)
							if wok {
								wb = want.Blocks[wi]
							}
							if ok != wok || !sameBlock(got, wb) {
								errs <- fmt.Errorf("vertex %d probe %x: Lookup %+v ok=%v, in-RAM FindIndex %+v ok=%v", v, c, got, ok, wb, wok)
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// sameTree compares two trees block for block, bit for bit.
func sameTree(a, b *quadtree.Tree) bool {
	if len(a.Blocks) != len(b.Blocks) || math.Float64bits(a.MinLambda) != math.Float64bits(b.MinLambda) {
		return false
	}
	for i := range a.Blocks {
		if !sameBlock(a.Blocks[i], b.Blocks[i]) {
			return false
		}
	}
	return true
}
