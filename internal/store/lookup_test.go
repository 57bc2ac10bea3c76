package store_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
// On both page sources, and pools of one page, 5% and 100%, it probes every
// vertex of a 10×10 road map twice with the code of every vertex plus codes
// no vertex has, and the runs of longRunsImage that span three pages or more
// at every third block, some lookups right after an eviction of the run's first
// page, so its pages are read again. Each answer must equal, in its bits
// and in ok, the block Tree().FindIndex finds on a separate handle of the
// same image. Each lookup must decode exactly the blocks from its restart
// entry through the first block ending past the probe, and touch each page
// holding the run's header or those blocks exactly once and no other page:
// the long runs make lookups that skip the pages between the two. On
// ReadAt the pages are named: every other lookup runs with every frame
// dropped, so each page it touches is read, and the reads must be exactly
// those pages.
func TestLookupMatchesTree(t *testing.T) {
	type lookupImage struct {
		img      []byte
		path     string
		ref      *store.Store
		vertices []graph.VertexID
		probes   func(tree *quadtree.Tree) []geom.Code
		passes   int
	}
	image := func(name string, img []byte) lookupImage {
		ref, err := store.Open(bytes.NewReader(img), int64(len(img)), store.OpenOptions{CacheFraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		return lookupImage{img: img, path: path, ref: ref}
	}
	_, ix := buildTestIndex(t, 10, 10)
	small := image("road10", writeImage(t, ix))
	g := small.ref.Graph()
	for v := 0; v < g.NumVertices(); v++ {
		small.vertices = append(small.vertices, graph.VertexID(v))
	}
	vertexProbes := lookupProbes(g)
	small.probes = func(*quadtree.Tree) []geom.Code { return vertexProbes }
	small.passes = 2
	long := image("long", longRunsImage(t))
	for v := 0; v < long.ref.Graph().NumVertices(); v++ {
		l, err := long.ref.Layout(graph.VertexID(v))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(l.Ends); n > 0 && (l.Lo+int64(l.Blocks+l.Ends[n-1])-1)/int64(l.PageSize)-l.Lo/int64(l.PageSize) >= 2 {
			long.vertices = append(long.vertices, graph.VertexID(v))
		}
	}
	long.probes = func(tree *quadtree.Tree) []geom.Code {
		probes := []geom.Code{0, 1<<(2*geom.MaxLevel) - 1}
		for i := 0; i < len(tree.Blocks); i += 3 {
			b := tree.Blocks[i]
			probes = append(probes, b.Cell.Code, b.Cell.End()-1)
		}
		return probes
	}
	long.passes = 1

	pools := []struct {
		name string
		opts store.OpenOptions
	}{
		{"pool=1page", store.WithPoolPages(store.OpenOptions{}, 1)},
		{"pool=5%", store.OpenOptions{CacheFraction: 0.05}},
		{"pool=100%", store.OpenOptions{CacheFraction: 1}},
	}
	for _, src := range []string{"ReadAt", "Mmap"} {
		for _, pool := range pools {
			t.Run("PG2/"+src+"/"+pool.name, func(t *testing.T) {
				spans, multiPage, skipping := 0, 0, 0
				for _, im := range []lookupImage{small, long} {
					rec := &readRecorder{r: bytes.NewReader(im.img)}
					var s *store.Store
					var err error
					if src == "Mmap" {
						s, err = store.OpenMapped(im.path, pool.opts)
					} else {
						s, err = store.Open(rec, int64(len(im.img)), pool.opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					for _, vid := range im.vertices {
						tree, err := im.ref.Tree(nil, vid)
						if err != nil {
							t.Fatal(err)
						}
						layout, err := s.Layout(vid)
						if err != nil {
							t.Fatal(err)
						}
						for pass := 0; pass < im.passes; pass++ {
							for i, c := range im.probes(tree) {
								if (i+pass)%3 == 0 {
									s.EvictVertex(vid)
								}
								named := src == "ReadAt" && (i+pass)%2 == 0
								if named {
									s.DropFrames()
								}
								rec.offs = rec.offs[:0]
								var io diskio.Stats
								got, ok, err := s.Lookup(&io, vid, c)
								if err != nil {
									t.Fatalf("vertex %d probe %x: %v", vid, c, err)
								}
								var want quadtree.Block
								wi, wok := tree.FindIndex(c)
								if wok {
									want = tree.Blocks[wi]
								}
								if ok != wok || !sameBlock(got, want) {
									t.Fatalf("vertex %d probe %x: Lookup %+v ok=%v, Tree().FindIndex %+v ok=%v",
										vid, c, got, ok, want, wok)
								}
								if want := spanDecodes(tree, c); io.BlocksDecoded != want {
									t.Fatalf("vertex %d probe %x: decoded %d of %d blocks, want %d",
										vid, c, io.BlocksDecoded, len(tree.Blocks), want)
								}
								pages := lookupPages(layout, tree, c)
								if io.Accesses() != int64(len(pages)) {
									t.Fatalf("vertex %d probe %x: %d page touches, want one for each of pages %v",
										vid, c, io.Accesses(), pages)
								}
								if named {
									if read := rec.pages(layout); !slices.Equal(read, pages) {
										t.Fatalf("vertex %d probe %x: read pages %v, want %v (header and decoded span)", vid, c, read, pages)
									}
								}
								if len(pages) > 0 {
									spans++
								}
								if len(pages) > 1 {
									multiPage++
								}
								if len(pages) > 0 && pages[len(pages)-1]-pages[0] >= int64(len(pages)) {
									skipping++
								}
							}
						}
					}
				}
				if multiPage == 0 || multiPage == spans || skipping == 0 {
					t.Fatalf("%d of %d lookups touched more than one page, %d skipped one: every kind must be exercised", multiPage, spans, skipping)
				}
			})
		}
	}
}

// longRunsImage writes an image over a 40×40 grid where every 50th vertex's
// run holds 200 to 1,400 random blocks — sorted, level-aligned, colored
// within the vertex's out-degree, ratio bounds in [1, 2.5] — so many span
// three pages or more; the other runs hold one or two. The store checks a
// run's structure, not what its blocks mean.
func longRunsImage(t *testing.T) []byte {
	t.Helper()
	g, err := graph.GenerateGrid(40, 40)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	trees := make([]*quadtree.Tree, g.NumVertices())
	for v := range trees {
		var blocks []quadtree.Block
		code := uint64(0)
		n := 1 + rng.Intn(2)
		if v%50 == 0 {
			n = 200 + rng.Intn(1200)
		}
		for len(blocks) < n {
			level := uint8(12 + rng.Intn(5))
			span := uint64(1) << (2 * (geom.MaxLevel - level))
			code = (code+span-1)/span*span + uint64(rng.Intn(3))*span
			lo := 1 + rng.Float32()
			hi := lo
			if rng.Intn(2) == 0 {
				hi += rng.Float32() / 2
			}
			blocks = append(blocks, quadtree.Block{Cell: geom.Cell{Code: geom.Code(code), Level: level},
				Color: int32(rng.Intn(g.Degree(graph.VertexID(v)))), LamLo: lo, LamHi: hi})
			code += span
		}
		trees[v] = &quadtree.Tree{Blocks: blocks}
	}
	plan, err := store.PlanImage(store.Source{Graph: g, Tree: func(v graph.VertexID) *quadtree.Tree { return trees[v] }})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := plan.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readRecorder is an io.ReaderAt that records the offset of every read.
type readRecorder struct {
	r    io.ReaderAt
	offs []int64
}

func (r *readRecorder) ReadAt(p []byte, off int64) (int, error) {
	r.offs = append(r.offs, off)
	return r.r.ReadAt(p, off)
}

// pages returns the block pages the recorded reads read, in read order.
func (r *readRecorder) pages(l store.RunLayout) []int64 {
	var pages []int64
	for _, off := range r.offs {
		pages = append(pages, (off-l.BlockOffset)/int64(l.PageSize))
	}
	return pages
}

// spanDecodes is how many blocks a lookup of probe c decodes from a run of
// tree's blocks: exactly the blocks from its restart entry — the last
// multiple of RestartEvery that has an entry and is at most the index k of
// the first block ending past c (the run's length when none does) — through
// block k, or to the run's end.
func spanDecodes(tree *quadtree.Tree, c geom.Code) int64 {
	count := len(tree.Blocks)
	k := firstEndingPast(tree.Blocks, c)
	start := min(k/store.RestartEvery, max(count-1, 0)/store.RestartEvery) * store.RestartEvery
	return int64(min(k+1, count) - start)
}

// firstEndingPast is the index of the first block ending past c, or
// len(blocks) when none does.
func firstEndingPast(blocks []quadtree.Block, c geom.Code) int {
	for i, b := range blocks {
		if b.Cell.End() > c {
			return i
		}
	}
	return len(blocks)
}

// lookupPages is the block pages, ascending, a lookup of probe c touches
// in tree's run, laid out as l: those holding the run's header, then those
// holding the blocks spanDecodes counts.
func lookupPages(l store.RunLayout, tree *quadtree.Tree, c geom.Code) []int64 {
	count := len(l.Ends)
	if count == 0 {
		return nil
	}
	k := firstEndingPast(tree.Blocks, c)
	start := min(k/store.RestartEvery, (count-1)/store.RestartEvery) * store.RestartEvery
	from := 0
	if start > 0 {
		from = l.Ends[start-1]
	}
	var pages []int64
	add := func(lo, hi int) {
		ps := int64(l.PageSize)
		for p := (l.Lo + int64(lo)) / ps; p <= (l.Lo+int64(hi)-1)/ps; p++ {
			if len(pages) == 0 || pages[len(pages)-1] < p {
				pages = append(pages, p)
			}
		}
	}
	add(0, l.Blocks)
	add(l.Blocks+from, l.Blocks+l.Ends[min(k, count-1)])
	return pages
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
// behind a one-page pool, over both page sources. First, for every vertex
// in turn, 8 goroutines released together look up its run at once, each
// from another restart entry. Then the 8 goroutines probe every vertex in
// different orders, so lookups and evictions of each other's pages
// interleave. Every answer must equal Tree().FindIndex on a separate handle.
// Run it under -race.
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
			s, err := open(path, store.WithPoolPages(store.OpenOptions{}, 1))
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
		})
	}
}

// TestLookupRecycledFramesConcurrent races the three ways a run is read —
// a Lookup, a Tree, and a Lookup right after an eviction of the run's first
// page — from 8 goroutines over a 2-page pool, on each page source. Nearly
// every touch evicts, so the frames of ReadAt and File stores are recycled
// constantly: a run gathered from a frame after the frame went back to the
// Pager would read another page's bytes. Every answer must equal the in-RAM
// tree's FindIndex and every tree the in-RAM tree.
func TestLookupRecycledFramesConcurrent(t *testing.T) {
	g, ix := buildTestIndex(t, 10, 10)
	n := g.NumVertices()
	probes := lookupProbes(g)
	path := filepath.Join(t.TempDir(), "img")
	if err := os.WriteFile(path, writeImage(t, ix), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("PG2", func(t *testing.T) {
		for _, src := range pageSources {
			t.Run(src, func(t *testing.T) {
				s := openSource(t, path, src, store.WithPoolPages(store.OpenOptions{}, 2))
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
	})
}

// The page sources of a store opened from a file: what fills a missed
// frame.
var pageSources = []string{
	"ReadAt", // OpenFile: a positioned read
	"File",   // Open over a Mapping: a copy out of the mapping
	"Mmap",   // OpenMapped: the frames alias the mapping
}

// openSource opens the image at path through page source src (one of
// pageSources); the test's cleanup closes it.
func openSource(t *testing.T, path, src string, opts store.OpenOptions) *store.Store {
	t.Helper()
	var s *store.Store
	var err error
	switch src {
	case "ReadAt":
		s, err = store.OpenFile(path, opts)
	case "Mmap":
		s, err = store.OpenMapped(path, opts)
	case "File":
		data, unmap, merr := store.MapFile(path)
		if merr != nil {
			t.Fatal(merr)
		}
		t.Cleanup(func() { unmap.Close() })
		s, err = store.Open(store.Mapping(data), int64(len(data)), opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
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
