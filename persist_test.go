package silc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"silc/internal/geom"
	"silc/internal/graph"
)

func TestIndexPersistenceRoundTrip(t *testing.T) {
	net := testNetwork(t)
	ix := testIndex(t, net)

	var img bytes.Buffer
	if _, err := ix.WritePaged(&img); err != nil {
		t.Fatal(err)
	}

	// A different process: reopen the self-contained image and verify query
	// equivalence.
	ix2, err := OpenEngineAt(bytes.NewReader(img.Bytes()), int64(img.Len()), nil, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix2.Network(); got.NumVertices() != net.NumVertices() || got.NumEdges() != net.NumEdges() {
		t.Fatalf("embedded network is %d/%d, built over %d/%d", got.NumVertices(), got.NumEdges(), net.NumVertices(), net.NumEdges())
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		u := VertexID(rng.Intn(net.NumVertices()))
		v := VertexID(rng.Intn(net.NumVertices()))
		if a, b := on(t, ix).dist(u, v), on(t, ix2).dist(u, v); math.Abs(a-b) > 1e-12 {
			t.Fatalf("distance differs after reload: %v vs %v", a, b)
		}
	}
	if ix.Stats().TotalBlocks != ix2.Stats().TotalBlocks {
		t.Fatal("block counts differ after reload")
	}
}

func TestOpenEngineAtRejectsGarbage(t *testing.T) {
	net := testNetwork(t)
	for name, data := range map[string][]byte{
		"garbage":   []byte("not an index"),
		"empty":     nil,
		"truncated": []byte("SILCPG"),
	} {
		if _, err := OpenEngineAt(bytes.NewReader(data), int64(len(data)), net, BuildOptions{}); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: err = %v, want ErrBadMagic", name, err)
		}
	}
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEngine(path, nil, BuildOptions{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("OpenEngine on garbage: err = %v, want ErrBadMagic", err)
	}
}

// TestOpenRejectsRemovedFormat hands every opener a monolithic and a
// sharded image whose magic names a removed format — the version digit of
// SILCPG3 / SILCSPG3 set to 1, the fixed-width format, or to 2, the format
// without restart tables: each must fail with ErrBadMagic and say to
// rebuild the image.
func TestOpenRejectsRemovedFormat(t *testing.T) {
	net := testNetwork(t)
	mono, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(net, BuildOptions{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		write   func(io.Writer) (ImageInfo, error)
		version int // offset of the magic's version digit
	}{{"mono", mono.WritePaged, 6}, {"sharded", sharded.WritePaged, 7}} {
		for _, version := range []byte{'1', '2'} {
			var buf bytes.Buffer
			if _, err := tc.write(&buf); err != nil {
				t.Fatal(err)
			}
			img := buf.Bytes()
			img[tc.version] = version
			path := filepath.Join(t.TempDir(), tc.name)
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			opens := map[string]func() error{
				"OpenEngineAt": func() error {
					_, err := OpenEngineAt(bytes.NewReader(img), int64(len(img)), net, BuildOptions{})
					return err
				},
				"OpenEngine": func() error {
					_, err := OpenEngine(path, nil, BuildOptions{})
					return err
				},
			}
			for name, open := range opens {
				err := open()
				if !errors.Is(err, ErrBadMagic) {
					t.Fatalf("%s %s (version %c): err = %v, want ErrBadMagic", tc.name, name, version, err)
				}
				if msg := err.Error(); !strings.Contains(msg, "removed") || !strings.Contains(msg, "silcbuild -o") {
					t.Fatalf("%s %s (version %c): %q does not say the format was removed and to rebuild with silcbuild -o", tc.name, name, version, msg)
				}
			}
		}
	}
}

// TestOpenRejectsBoundedImage: an image of the removed proximity-bounded
// build — the superblock's reserved word at offset 24 nonzero, its CRC
// recomputed — does not open, monolithic or as one cell of a 4-cell image,
// and the error names the proximity radius and says to rebuild. The same
// edit writing zero back opens, so the word alone is refused.
func TestOpenRejectsBoundedImage(t *testing.T) {
	net := testNetwork(t)
	for _, parts := range []int{1, 4} {
		eng, err := Build(net, BuildOptions{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := eng.WritePaged(&buf); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		// The monolithic superblock opens the image; a sharded file embeds
		// one per cell, each at a page-aligned offset.
		sb := bytes.Index(img, []byte("SILCPG3\x00"))
		if sb < 0 || sb%4096 != 0 || (parts > 1) != (sb > 0) {
			t.Fatalf("P=%d: monolithic superblock at %d", parts, sb)
		}
		setRadius := func(r float64) {
			binary.LittleEndian.PutUint64(img[sb+24:], math.Float64bits(r))
			binary.LittleEndian.PutUint32(img[sb+96:], crc32.ChecksumIEEE(img[sb:sb+96]))
		}
		setRadius(0.25)
		_, err = OpenEngineAt(bytes.NewReader(img), int64(len(img)), nil, BuildOptions{})
		if err == nil {
			t.Fatalf("P=%d: an image with a proximity radius opened", parts)
		}
		if msg := err.Error(); !strings.Contains(msg, "proximity radius") || !strings.Contains(msg, "silcbuild -o") {
			t.Fatalf("P=%d: %q does not name the proximity radius and say to rebuild with silcbuild -o", parts, msg)
		}
		t.Logf("P=%d: %v", parts, err)
		setRadius(0)
		if _, err := OpenEngineAt(bytes.NewReader(img), int64(len(img)), nil, BuildOptions{}); err != nil {
			t.Fatalf("P=%d: the image with its radius word zeroed again: %v", parts, err)
		}
	}
}

func TestWithinDistance(t *testing.T) {
	net := testNetwork(t)
	ix := testIndex(t, net)
	rng := rand.New(rand.NewSource(8))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 40)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	objs := mustObjects(t, net, vertices)
	q := VertexID(perm[45])

	eng := on(t, ix)
	for _, radius := range []float64{0.1, 0.3, 0.7} {
		res := eng.within(objs, q, radius)
		// Cross-validate against exact distances.
		want := 0
		for _, v := range vertices {
			if eng.dist(q, v) <= radius {
				want++
			}
		}
		if len(res.Neighbors) != want {
			t.Fatalf("radius %v: got %d want %d", radius, len(res.Neighbors), want)
		}
		for _, n := range res.Neighbors {
			if d := eng.dist(q, n.Vertex); d > radius+1e-9 {
				t.Fatalf("object at %v beyond radius %v", d, radius)
			}
		}
	}
	if res, err := ix.WithinDistance(context.Background(), objs, q, -1); !errors.Is(err, ErrBadRadius) || len(res.Neighbors) != 0 {
		t.Fatalf("negative radius: %d objects, err %v", len(res.Neighbors), err)
	}
}

func TestConcurrentReaders(t *testing.T) {
	// An in-memory index must serve concurrent queries safely (run under
	// -race in CI); concurrency_test.go covers the disk-resident ones.
	net := testNetwork(t)
	eng := testIndex(t, net)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 30)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	objs := mustObjects(t, net, vertices)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				q := VertexID(r.Intn(net.NumVertices()))
				res, err := eng.Query(ctx, objs, q, 3, WithExactDistances())
				if err != nil || len(res.Neighbors) != 3 {
					errs <- "short result"
					return
				}
				d, err := eng.Distance(ctx, q, res.Neighbors[0].Vertex)
				if err != nil || math.Abs(d-res.Neighbors[0].Dist) > 1e-9 {
					errs <- "distance mismatch"
					return
				}
				if _, err := eng.ShortestPath(ctx, q, res.Neighbors[2].Vertex); err != nil {
					errs <- "path failed"
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestStructuralCorruptionSurfacesOnLookup corrupts one vertex's run inside
// an image behind valid checksums — the mangled page's CRC and the CRC
// table's own checksum are recomputed — so only the run decoder can catch
// it, and holds the store's one lookup path to its fault contract:
//
//   - run header (block count, empty dictionary, dictionary color): every
//     lookup reads the header, so every lookup of the run fails, and so does
//     a distance from the vertex — on its first lookup, again on the second
//     and after its pages are evicted — and one whose path runs through it.
//   - run tail (the final byte made a varint continuation, which runs off
//     the run's end): every call that decodes the last block fails — a tree
//     decode, and a lookup whose first block ending past its probe is the
//     last or none — and every other lookup returns the clean image's
//     block, bit for bit.
//   - restart entry (entry 0's offset one higher, or its end code one step
//     of its aligned encoding further; every later entry moves with it): a
//     tree decode fails, and so does a lookup
//     probing an entry's true end code, which decodes up to that entry and
//     finds the state disagreeing with it. A lookup that ends before entry
//     0's block returns the clean block; one that starts at a moved entry
//     decodes what the entry points at, block by block checked, and must
//     only not panic.
//
// On both page sources (mmap=false: positioned reads of the file;
// mmap=true: copies out of its mapping) a sweep of distances, kNN and range queries over
// the header and tail mangles must never panic: each answer is either an
// error naming the vertex or exactly the clean image's answer.
func TestStructuralCorruptionSurfacesOnLookup(t *testing.T) {
	net := testNetwork(t)
	eng, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.WritePaged(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	cleanEng, err := OpenEngineAt(bytes.NewReader(clean), int64(len(clean)), nil, BuildOptions{CacheFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	cleanStore := cleanEng.pager.Stores()[0]
	// The image layout (DESIGN.md §11): superblock fields, then the extent
	// section's per-vertex block counts and run byte lengths; a run starts
	// with its block count, dictionary and restart table.
	le := binary.LittleEndian
	pageSize := int(le.Uint32(clean[8:12]))
	n := int(le.Uint32(clean[16:20]))
	extentOff := int(le.Uint64(clean[56:64]))
	blockOff := int(le.Uint64(clean[64:72]))
	blockPages := int(le.Uint64(clean[72:80]))
	crcTabOff := int(le.Uint64(clean[80:88]))
	victim := VertexID(n / 2)
	runOff := blockOff
	for v := 0; v < int(victim); v++ {
		runOff += int(le.Uint32(clean[extentOff+(n+v)*4:]))
	}
	tree, err := cleanStore.Tree(nil, victim)
	if err != nil {
		t.Fatal(err)
	}
	const restartEvery = 16
	if len(tree.Blocks) <= 2*restartEvery {
		t.Fatalf("vertex %d has %d blocks, too few for two restart entries", victim, len(tree.Blocks))
	}
	_, countLen := binary.Uvarint(clean[runOff:])
	ncolorsAt := runOff + countLen
	tableLenAt := ncolorsAt + 1 + int(clean[ncolorsAt])
	_, w := binary.Uvarint(clean[tableLenAt:])
	tableAt := tableLenAt + w // entry 0: offset delta, end-code delta, ...
	_, w = binary.Uvarint(clean[tableAt:])
	keyAt := tableAt + w
	if clean[tableAt] >= 0x7F || clean[keyAt]&0x70 == 0x70 {
		t.Fatalf("entry 0's offset or aligned end code does not take one more step in its first byte")
	}
	runEnd := runOff + int(le.Uint32(clean[extentOff+(n+int(victim))*4:]))

	// Probes: every vertex's code, and the codes at and around every block.
	var probes []geom.Code
	for v := 0; v < n; v++ {
		probes = append(probes, net.g.Code(graph.VertexID(v)))
	}
	for _, b := range tree.Blocks {
		probes = append(probes, b.Cell.Code, b.Cell.Code-1, b.Cell.End()-1, b.Cell.End())
	}
	entryEnds := map[geom.Code]bool{}
	for i := restartEvery; i < len(tree.Blocks); i += restartEvery {
		entryEnds[tree.Blocks[i-1].Cell.End()] = true
	}
	// decodesTo is the index of the last block a lookup of c decodes: the
	// first block ending past c, or the last block.
	decodesTo := func(c geom.Code) int {
		for i, b := range tree.Blocks {
			if b.Cell.End() > c {
				return i
			}
		}
		return len(tree.Blocks) - 1
	}

	// A path with the victim strictly inside it, found on the clean index.
	ctx := context.Background()
	var through [2]VertexID
	for u := 0; u < n && through == [2]VertexID{}; u++ {
		for w := n - 1; w > u; w-- {
			p, err := eng.ShortestPath(ctx, VertexID(u), VertexID(w))
			if err != nil {
				t.Fatal(err)
			}
			if len(p) > 2 && slices.Contains(p[1:len(p)-1], victim) {
				through = [2]VertexID{VertexID(u), VertexID(w)}
				break
			}
		}
	}
	if through == [2]VertexID{} {
		t.Fatalf("no shortest path runs through vertex %d", victim)
	}
	objs := mustObjects(t, net, []VertexID{3, VertexID(n / 4), VertexID(n / 3), victim, VertexID(n - 2)})

	const (
		header = iota
		tail
		entry
	)
	for _, m := range []struct {
		name string
		at   int
		set  func(byte) byte
		kind int
	}{
		{"block count", runOff, func(b byte) byte { return b ^ 0x01 }, header},
		{"empty dictionary", ncolorsAt, func(byte) byte { return 0 }, header},
		{"dictionary color", ncolorsAt + 1, func(byte) byte { return 0xFF }, header},
		{"run tail", runEnd - 1, func(byte) byte { return 0x80 }, tail},
		{"restart offset", tableAt, func(b byte) byte { return b + 1 }, entry},
		{"restart key", keyAt, func(b byte) byte { return b + 0x10 }, entry}, // above the 4-bit shift
	} {
		img := append([]byte(nil), clean...)
		img[m.at] = m.set(img[m.at])
		page := (m.at - blockOff) / pageSize
		le.PutUint32(img[crcTabOff+page*4:], crc32.ChecksumIEEE(img[blockOff+page*pageSize:blockOff+(page+1)*pageSize]))
		le.PutUint32(img[crcTabOff+blockPages*4:], crc32.ChecksumIEEE(img[crcTabOff:crcTabOff+blockPages*4]))
		path := filepath.Join(t.TempDir(), "mangled.silcpg")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mmap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mmap=%v", m.name, mmap), func(t *testing.T) {
				src := "ReaderAt" // positioned reads of the file
				if mmap {
					src = "File" // copies out of its mapping
				}
				bad := openSource(t, path, src, 1) // a run is not checked at open
				defer bad.Close()
				badStore := bad.pager.Stores()[0]
				named := fmt.Sprintf("vertex %d", victim)
				check := func(what string, err error) {
					t.Helper()
					if err == nil {
						t.Fatalf("%s: corrupt run of vertex %d answered without error", what, victim)
					}
					if !strings.Contains(err.Error(), named) {
						t.Fatalf("%s: error %q does not name %s", what, err, named)
					}
					if !errors.Is(err, ErrCorruptImage) {
						t.Fatalf("%s: error %q does not match ErrCorruptImage", what, err)
					}
				}
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("mangled image panicked: %v", r)
					}
				}()

				_, err = badStore.Tree(nil, victim)
				check("tree decode", err)
				for _, c := range probes {
					got, ok, err := badStore.Lookup(nil, victim, c)
					want, wok, _ := cleanStore.Lookup(nil, victim, c)
					what := fmt.Sprintf("lookup of %x", c)
					switch {
					case m.kind == header,
						m.kind == tail && decodesTo(c) == len(tree.Blocks)-1,
						m.name == "restart key" && entryEnds[c]:
						check(what, err)
					case m.kind == tail || decodesTo(c) < restartEvery:
						if err != nil || ok != wok || got != want {
							t.Fatalf("%s: mangled image answered %+v ok=%v err=%v, clean image %+v ok=%v", what, got, ok, err, want, wok)
						}
					}
				}
				if m.kind == entry {
					return
				}

				dst := VertexID(0)
				if m.kind == header {
					_, err = bad.Distance(ctx, victim, dst)
					check("first lookup", err)
					_, err = bad.Distance(ctx, victim, dst)
					check("second lookup", err)
					flushPool(bad)
					_, err = bad.Distance(ctx, victim, dst)
					check("lookup after an eviction", err)
					_, err = bad.Distance(ctx, through[0], through[1])
					check("path through the vertex", err)
				}

				sweep := func(what string, got, want any, err error) {
					t.Helper()
					if err != nil {
						check(what, err)
					} else if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: mangled image answered %v, clean image %v", what, got, want)
					}
				}
				for u := 0; u < n; u += 7 {
					for w := 0; w < n; w += 5 {
						got, err := bad.Distance(ctx, VertexID(u), VertexID(w))
						want, _ := eng.Distance(ctx, VertexID(u), VertexID(w))
						sweep(fmt.Sprintf("distance %d->%d", u, w), got, want, err)
					}
					res, err := bad.Query(ctx, objs, VertexID(u), 3)
					want, _ := eng.Query(ctx, objs, VertexID(u), 3)
					sweep(fmt.Sprintf("kNN from %d", u), res.Neighbors, want.Neighbors, err)
					res, err = bad.WithinDistance(ctx, objs, VertexID(u), 0.2)
					want, _ = eng.WithinDistance(ctx, objs, VertexID(u), 0.2)
					sweep(fmt.Sprintf("range from %d", u), res.Neighbors, want.Neighbors, err)
				}
			})
		}
	}
}
