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

	"silc/internal/diskio"
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
	ix2, err := OpenIndexAt(bytes.NewReader(img.Bytes()), int64(img.Len()), BuildOptions{})
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
		if a, b := on(t, ix.Engine()).dist(u, v), on(t, ix2.Engine()).dist(u, v); math.Abs(a-b) > 1e-12 {
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
// sharded image whose magic names the removed fixed-width format (the
// version digit of SILCPG2 / SILCSPG2 set to 1): each must fail with
// ErrBadMagic and say to rebuild the image.
func TestOpenRejectsRemovedFormat(t *testing.T) {
	net := testNetwork(t)
	mono, err := BuildIndex(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildShardedIndex(net, ShardedBuildOptions{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		write   func(io.Writer) (int64, error)
		version int // offset of the magic's version digit
	}{{"mono", mono.WritePaged, 6}, {"sharded", sharded.WritePaged, 7}} {
		var buf bytes.Buffer
		if _, err := tc.write(&buf); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		img[tc.version] = '1'
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
		if tc.name == "mono" {
			opens["OpenIndexAt"] = func() error {
				_, err := OpenIndexAt(bytes.NewReader(img), int64(len(img)), BuildOptions{})
				return err
			}
		}
		for name, open := range opens {
			err := open()
			if !errors.Is(err, ErrBadMagic) {
				t.Fatalf("%s %s: err = %v, want ErrBadMagic", tc.name, name, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "removed") || !strings.Contains(msg, "silcbuild -o") {
				t.Fatalf("%s %s: %q does not say the format was removed and to rebuild with silcbuild -o", tc.name, name, msg)
			}
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

	eng := on(t, ix.Engine())
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
	if res, err := ix.Engine().WithinDistance(context.Background(), objs, q, -1); !errors.Is(err, ErrBadRadius) || len(res.Neighbors) != 0 {
		t.Fatalf("negative radius: %d objects, err %v", len(res.Neighbors), err)
	}
}

func TestConcurrentReaders(t *testing.T) {
	// An in-memory index must serve concurrent queries safely (run under
	// -race in CI); concurrency_test.go covers the disk-resident ones.
	net := testNetwork(t)
	eng := testIndex(t, net).Engine()
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

func TestProximityBoundedIndexPublicAPI(t *testing.T) {
	net := testNetwork(t)
	ix, err := BuildIndex(net, BuildOptions{ProximityRadius: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Radius() != 0.25 {
		t.Fatalf("Radius = %v", ix.Radius())
	}
	full := testIndex(t, net)
	if ix.Stats().TotalBlocks >= full.Stats().TotalBlocks {
		t.Fatal("proximity bound did not shrink the index")
	}

	rng := rand.New(rand.NewSource(14))
	sawNear, sawFar := false, false
	for trial := 0; trial < 200 && !(sawNear && sawFar); trial++ {
		u := VertexID(rng.Intn(net.NumVertices()))
		v := VertexID(rng.Intn(net.NumVertices()))
		if u == v {
			continue
		}
		want := on(t, full.Engine()).dist(u, v)
		got := on(t, ix.Engine()).dist(u, v)
		if want <= 0.25 {
			sawNear = true
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("in-range distance %v want %v", got, want)
			}
		} else {
			sawFar = true
			if !math.IsInf(got, 1) {
				t.Fatalf("out-of-range distance %v, want +Inf", got)
			}
			if on(t, ix.Engine()).path(u, v) != nil {
				t.Fatal("out-of-range path not nil")
			}
			r := ix.NewRefiner(u, v)
			if !r.OutOfRange() {
				t.Fatal("refiner should report out of range")
			}
		}
	}
	if !sawNear || !sawFar {
		t.Fatal("test radius did not exercise both regimes")
	}

	// Persistence keeps the bound.
	var buf bytes.Buffer
	if _, err := ix.WritePaged(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := OpenIndexAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Radius() != 0.25 {
		t.Fatalf("radius lost on reload: %v", back.Radius())
	}
}

// TestStructuralCorruptionSurfacesOnLookup corrupts one vertex's run inside
// a PG2 image behind valid checksums — the mangled page's CRC and the CRC
// table's own checksum are recomputed — so only the run decoder can catch
// it: three mangles of the run header, and one of its final byte, which
// makes the last varint run off the end of the run, where a lookup that
// stopped at the block it needs would never look. On both page sources, a
// distance from that vertex must fail on its first lookup, again on the
// second — a failed full pass leaves the run unvalidated, so it is again a
// full pass — and again on a lookup after its pages are evicted; a distance
// whose path runs through it must fail too,
// and a sweep of distances, kNN and range queries must never panic: each
// answer is either an error naming the vertex or exactly the clean image's
// answer.
func TestStructuralCorruptionSurfacesOnLookup(t *testing.T) {
	net := testNetwork(t)
	built, err := BuildIndex(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WritePaged(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// SILCPG2 layout (DESIGN.md §11): superblock fields, then the extent
	// section's per-vertex block counts and run byte lengths.
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
	if le.Uint32(clean[extentOff+int(victim)*4:]) == 0 {
		t.Fatalf("vertex %d has no run to corrupt", victim)
	}
	_, countLen := binary.Uvarint(clean[runOff:])
	ncolorsAt := runOff + countLen
	runEnd := runOff + int(le.Uint32(clean[extentOff+(n+int(victim))*4:]))

	// A path with the victim strictly inside it, found on the clean index.
	ctx := context.Background()
	eng := built.Engine()
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

	for _, m := range []struct {
		name string
		at   int
		set  func(byte) byte
	}{
		{"block count", runOff, func(b byte) byte { return b ^ 0x01 }},
		{"empty dictionary", ncolorsAt, func(byte) byte { return 0 }},
		{"dictionary color", ncolorsAt + 1, func(byte) byte { return 0xFF }},
		{"run tail", runEnd - 1, func(byte) byte { return 0x80 }},
	} {
		img := append([]byte(nil), clean...)
		img[m.at] = m.set(img[m.at])
		page := (m.at - blockOff) / pageSize
		le.PutUint32(img[crcTabOff+page*4:], crc32.ChecksumIEEE(img[blockOff+page*pageSize:blockOff+(page+1)*pageSize]))
		le.PutUint32(img[crcTabOff+blockPages*4:], crc32.ChecksumIEEE(img[crcTabOff:crcTabOff+blockPages*4]))
		path := filepath.Join(t.TempDir(), "mangled.silcpg2")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mmap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mmap=%v", m.name, mmap), func(t *testing.T) {
				idx, err := OpenIndex(path, BuildOptions{CacheFraction: 1, Mmap: mmap})
				if err != nil {
					t.Fatalf("open: a run header is not checked at open: %v", err)
				}
				defer idx.Close()
				bad := idx.Engine()
				named := fmt.Sprintf("vertex %d", victim)
				check := func(what string, err error) {
					t.Helper()
					if err == nil {
						t.Fatalf("%s: corrupt run of vertex %d answered without error", what, victim)
					}
					if !strings.Contains(err.Error(), named) {
						t.Fatalf("%s: error %q does not name %s", what, err, named)
					}
				}
				dst := VertexID(0)
				_, err = bad.Distance(ctx, victim, dst)
				check("first lookup", err)
				_, err = bad.Distance(ctx, victim, dst)
				check("second lookup", err)
				for p := (runOff - blockOff) / pageSize; p <= (runEnd-1-blockOff)/pageSize; p++ {
					bad.pager.Evict(diskio.PageID(p))
				}
				_, err = bad.Distance(ctx, victim, dst)
				check("lookup after an eviction", err)
				_, err = bad.Distance(ctx, through[0], through[1])
				check("path through the vertex", err)

				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("mangled image panicked: %v", r)
					}
				}()
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
