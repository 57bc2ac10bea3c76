package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"silc/internal/core"
	"silc/internal/diskio"
	"silc/internal/graph"
	"silc/internal/store"
)

// buildTestIndex builds a small road network and its in-RAM index.
func buildTestIndex(t *testing.T, rows, cols int) (*graph.Network, *core.Index) {
	t.Helper()
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: 7})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g, ix
}

// writeImage serializes ix as a paged image.
func writeImage(t *testing.T, ix *core.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WritePaged(&buf); err != nil {
		t.Fatalf("WritePaged: %v", err)
	}
	return buf.Bytes()
}

// TestOpenCellImage opens a cell image, planned without its network
// section: it opens over the network its caller supplies and answers like
// the in-RAM index. Opened without a network, or with one of other counts,
// it fails with an error wrapping store.ErrCorrupt, and so does an image
// with its network section opened with a network.
func TestOpenCellImage(t *testing.T) {
	g, ix := buildTestIndex(t, 8, 8)
	plan, err := ix.PlanPaged(true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := plan.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cell, full := buf.Bytes(), writeImage(t, ix)
	if info := plan.Info(); info.Network != 0 || int64(len(full)-len(cell)) > store.NetworkSectionSize(g.NumVertices(), g.NumEdges()) {
		t.Fatalf("cell image: network section %d bytes, image %d bytes against %d with the section", info.Network, len(cell), len(full))
	}
	open := func(img []byte, net *graph.Network) (*store.Store, error) {
		return store.Open(bytes.NewReader(img), int64(len(img)), store.OpenOptions{Network: net})
	}
	st, err := open(cell, g)
	if err != nil {
		t.Fatalf("open with its network: %v", err)
	}
	if st.Graph() != g {
		t.Fatal("the store does not read the network it was given")
	}
	px := core.NewPagedIndex(core.PagedConfig{Source: st})
	for u := 0; u < g.NumVertices(); u += 3 {
		for v := 0; v < g.NumVertices(); v += 5 {
			src, dst := graph.VertexID(u), graph.VertexID(v)
			if got, want := core.ExactDistance(px, nil, src, dst), core.ExactDistance(ix, nil, src, dst); got != want {
				t.Fatalf("distance %d->%d: cell image %v, in-RAM %v", u, v, got, want)
			}
		}
	}
	other, _ := buildTestIndex(t, 8, 9)
	for _, net := range []*graph.Network{nil, other} {
		if _, err := open(cell, net); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("open with network %p: %v, want an error wrapping store.ErrCorrupt", net, err)
		}
	}
	if _, err := open(full, g); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("image with a network section opened with a network: %v, want an error wrapping store.ErrCorrupt", err)
	}
}

// TestPagedRoundTrip checks that a paged-backed index answers exactly like
// the in-RAM index it was serialized from, for distances, intervals, and
// paths.
func TestPagedRoundTrip(t *testing.T) {
	g, ix := buildTestIndex(t, 12, 12)
	img := writeImage(t, ix)

	st, err := store.Open(bytes.NewReader(img), int64(len(img)), store.OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st.Graph().NumVertices() != g.NumVertices() || st.Graph().NumEdges() != g.NumEdges() {
		t.Fatalf("embedded network %d/%d, want %d/%d",
			st.Graph().NumVertices(), st.Graph().NumEdges(), g.NumVertices(), g.NumEdges())
	}
	px := core.NewPagedIndex(core.PagedConfig{Source: st})
	want := ix.Stats()
	want.BuildTime = 0 // an opened image reports no build
	if got := px.Stats(); got != want {
		t.Fatalf("paged stats %+v, want the build's %+v", got, want)
	}

	n := g.NumVertices()
	qc := core.NewQueryContext()
	for u := 0; u < n; u += 3 {
		for v := 0; v < n; v += 7 {
			uu, vv := graph.VertexID(u), graph.VertexID(v)
			want := ix.DistanceCtx(nil, uu, vv)
			got := core.ExactDistance(px, qc, uu, vv)
			if err := qc.Err(); err != nil {
				t.Fatalf("paged distance %d->%d: %v", u, v, err)
			}
			if math.Abs(want-got) > 1e-9*(1+want) {
				t.Fatalf("distance %d->%d: paged %v, in-RAM %v", u, v, got, want)
			}
			wiv := ix.DistanceIntervalCtx(nil, uu, vv)
			giv := px.DistanceIntervalCtx(qc, uu, vv)
			if wiv != giv {
				t.Fatalf("interval %d->%d: paged %+v, in-RAM %+v", u, v, giv, wiv)
			}
		}
	}
	wp := ix.PathCtx(nil, 0, graph.VertexID(n-1))
	gp := px.PathCtx(qc, 0, graph.VertexID(n-1))
	if len(wp) != len(gp) {
		t.Fatalf("path length %d, want %d", len(gp), len(wp))
	}
	for i := range wp {
		if wp[i] != gp[i] {
			t.Fatalf("path diverges at %d: %v vs %v", i, gp, wp)
		}
	}
	if st.Pager().Pool().Stats().Reads == 0 {
		t.Fatal("no actual page reads recorded")
	}
}

// TestEvictionBoundsResidency forces heavy eviction with a pool much
// smaller than the index and checks that resident memory — the pool's page
// frames, the store's only cache — stays bounded by the pool capacity
// rather than growing with the pages touched. This is the disk-residency acceptance property:
// the full index exceeds the pool, yet queries run within it.
func TestEvictionBoundsResidency(t *testing.T) {
	g, ix := buildTestIndex(t, 16, 16)
	img := writeImage(t, ix)

	const capacity = 8
	rec := &frameRecorder{r: bytes.NewReader(img), frames: map[*byte]bool{}}
	st, err := store.Open(rec, int64(len(img)), store.WithPoolPages(store.OpenOptions{}, capacity))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec.armed = true // count the page reads, not the open's
	if st.BlockPages() <= capacity {
		t.Fatalf("index has %d pages, need more than pool capacity %d for this test", st.BlockPages(), capacity)
	}
	px := core.NewPagedIndex(core.PagedConfig{Source: st})

	n := g.NumVertices()
	qc := core.NewQueryContext()
	for u := 0; u < n; u += 5 {
		for v := 0; v < n; v += 11 {
			core.ExactDistance(px, qc, graph.VertexID(u), graph.VertexID(v))
			if err := qc.Err(); err != nil {
				t.Fatalf("distance %d->%d: %v", u, v, err)
			}
			if rp := st.Tracker().Len(); rp > capacity {
				t.Fatalf("resident pages %d exceed pool capacity %d", rp, capacity)
			}
		}
	}
	pool := st.Tracker()
	stats := pool.Stats()
	if stats.Misses != rec.reads || stats.Reads != rec.reads {
		t.Fatalf("pool misses %d and reads %d but %d actual reads — misses must be real reads", stats.Misses, stats.Reads, rec.reads)
	}
	if qc.IO.Accesses() == 0 {
		t.Fatal("per-query counter saw no traffic")
	}
}

// TestCorruptPageSurfacesError flips a byte inside a block page and checks
// the failure surfaces as a query error (never a panic, never a wrong
// answer).
func TestCorruptPageSurfacesError(t *testing.T) {
	_, ix := buildTestIndex(t, 10, 10)
	img := writeImage(t, ix)

	st, err := store.Open(bytes.NewReader(img), int64(len(img)), store.OpenOptions{})
	if err != nil {
		t.Fatalf("Open clean: %v", err)
	}
	// Find the block section offset by probing: corrupt the LAST page, then
	// query everything until some vertex's tree hits it.
	corrupt := make([]byte, len(img))
	copy(corrupt, img)
	// The page CRC table is the trailing blockPages*4+4 bytes; the last
	// block page ends right before it.
	tail := int64(len(img)) - (st.BlockPages()*4 + 4)
	corrupt[tail-1] ^= 0xFF

	st2, err := store.Open(bytes.NewReader(corrupt), int64(len(corrupt)), store.OpenOptions{})
	if err != nil {
		t.Fatalf("Open corrupt (lazy pages must not fail open): %v", err)
	}
	px := core.NewPagedIndex(core.PagedConfig{Source: st2})
	n := st2.Graph().NumVertices()
	sawErr := false
	for u := 0; u < n && !sawErr; u++ {
		qc := core.NewQueryContext()
		core.ExactDistance(px, qc, graph.VertexID(u), graph.VertexID((u+n/2)%n))
		if err := qc.Err(); err != nil {
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("checksum failure %v does not match store.ErrCorrupt", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("corrupted page never surfaced as a query error")
	}
}

// frameRecorder is a page source that, once armed, records every distinct
// frame a store reads a page into, and counts the reads.
type frameRecorder struct {
	r      io.ReaderAt
	armed  bool
	frames map[*byte]bool
	reads  int64 // ReadAt calls while armed
}

func (f *frameRecorder) ReadAt(p []byte, off int64) (int, error) {
	if f.armed && len(p) > 0 {
		f.frames[&p[0]] = true
		f.reads++
	}
	return f.r.ReadAt(p, off)
}

// TestSharedPagerEvictionRouting opens two stores over one pool and checks
// that they share its frames under churn: an evicted page's frame goes onto
// the pool's free list and the next miss in either store reads into it, so
// the frames both stores ever read into never exceed the pool's capacity
// plus the one fill in flight, and the pool never holds more pages than its
// capacity. It runs over each page source.
func TestSharedPagerEvictionRouting(t *testing.T) {
	_, ixA := buildTestIndex(t, 10, 10)
	_, ixB := buildTestIndex(t, 12, 12)
	imgA, imgB := writeImage(t, ixA), writeImage(t, ixB)

	for _, src := range pageSources {
		t.Run(src, func(t *testing.T) {
			pager := store.NewPager(diskio.NewPool(4, 1))
			var recorders []*frameRecorder
			// open opens img over src in the shared pager: positioned reads
			// of the bytes, or copies out of them as a Mapping.
			open := func(img []byte, opts store.OpenOptions) (*store.Store, error) {
				opts.Pager = pager
				var ra io.ReaderAt = bytes.NewReader(img)
				if src == "File" {
					ra = store.Mapping(img)
				}
				rec := &frameRecorder{r: ra, frames: map[*byte]bool{}}
				recorders = append(recorders, rec)
				return store.Open(rec, int64(len(img)), opts)
			}
			stA, err := open(imgA, store.OpenOptions{})
			if err != nil {
				t.Fatalf("Open A: %v", err)
			}
			stB, err := open(imgB, store.OpenOptions{PageBase: diskio.PageID(stA.BlockPages())})
			if err != nil {
				t.Fatalf("Open B: %v", err)
			}
			frames := map[*byte]bool{}
			// held checks the frames read into so far against the bound.
			held := func(what string) {
				t.Helper()
				for _, rec := range recorders {
					for f := range rec.frames {
						frames[f] = true
					}
				}
				capacity := pager.Pool().Capacity()
				if len(frames) > capacity+1 {
					t.Fatalf("%s: stores read into %d frames, pool capacity %d + 1", what, len(frames), capacity)
				}
				if n := pager.Pool().Len(); n > capacity {
					t.Fatalf("%s: pool holds %d pages, capacity %d", what, n, capacity)
				}
			}
			for _, rec := range recorders {
				rec.armed = true
			}
			gA, gB := stA.Graph(), stB.Graph()
			for v := 0; v < gA.NumVertices(); v += 2 {
				if _, err := stA.Tree(nil, graph.VertexID(v)); err != nil {
					t.Fatalf("A tree %d: %v", v, err)
				}
			}
			for v := 0; v < gB.NumVertices(); v += 2 {
				if _, err := stB.Tree(nil, graph.VertexID(v)); err != nil {
					t.Fatalf("B tree %d: %v", v, err)
				}
			}
			held("trees")
			reads := int64(0)
			for _, rec := range recorders {
				reads += rec.reads
			}
			if rs := pager.Pool().Stats(); rs.Reads == 0 || rs.Reads != reads {
				t.Fatalf("pool counted %d reads, the stores made %d", rs.Reads, reads)
			}

			// Churn: interleave the two stores' trees and lookups in random order.
			rng := rand.New(rand.NewSource(11))
			var churn diskio.Stats
			for i := 0; i < 4000; i++ {
				st, g := stA, gA
				if rng.Intn(2) == 1 {
					st, g = stB, gB
				}
				v := graph.VertexID(rng.Intn(g.NumVertices()))
				var err error
				if i%3 == 0 {
					_, err = st.Tree(&churn, v)
				} else {
					_, _, err = st.Lookup(&churn, v, g.Code(graph.VertexID(rng.Intn(g.NumVertices()))))
				}
				if err != nil {
					t.Fatalf("churn %d: vertex %d: %v", i, v, err)
				}
				held(fmt.Sprintf("churn %d", i))
			}
			if churn.Evictions < 1000 {
				t.Fatalf("churn evicted only %d pages", churn.Evictions)
			}
			if churn.Reads != churn.Misses {
				t.Fatalf("churn: %d reads for %d misses", churn.Reads, churn.Misses)
			}
		})
	}
}

// flakyReader is an image whose reads fail with errFlaky once armed, the
// way a disk's would.
type flakyReader struct {
	img   []byte
	armed bool
}

var errFlaky = errors.New("flaky disk")

func (r *flakyReader) ReadAt(p []byte, off int64) (int, error) {
	if r.armed {
		return 0, errFlaky
	}
	return bytes.NewReader(r.img).ReadAt(p, off)
}

// TestReadErrorIsNotCorruption checks the line ErrCorrupt draws: a ReaderAt
// that fails is an I/O error, which a lookup and a tree decode pass on as
// it is, not as corruption.
func TestReadErrorIsNotCorruption(t *testing.T) {
	g, ix := buildTestIndex(t, 8, 8)
	r := &flakyReader{img: writeImage(t, ix)}
	s, err := store.Open(r, int64(len(r.img)), store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.armed = true
	_, _, lerr := s.Lookup(nil, 5, g.Code(9))
	_, terr := s.Tree(nil, 5)
	for what, err := range map[string]error{"lookup": lerr, "tree": terr} {
		if !errors.Is(err, errFlaky) || errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s: %v; want the read error, not store.ErrCorrupt", what, err)
		}
	}
}
