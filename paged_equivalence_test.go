package silc_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"silc"
)

// The equivalence property: the in-RAM monolithic engine, its paged image
// opened over all three page sources (positioned reads, copies out of the
// mapping, frames aliasing the mapping; pool squeezed to ~1% to force heavy
// eviction), and the 4-cell engine (in RAM and paged) must answer identical
// KNN, range, and Browser queries on every network family. Run under -race
// in CI, with a concurrent phase hammering the shared pool from many
// goroutines.

type equivEngine struct {
	name  string
	eng   *silc.Engine
	paged bool // reads real pages: the pool-traffic check applies
}

// buildEquivEngines assembles the engine matrix over one network — in-RAM,
// sharded, and their paged images crossed with the three page sources:
// readat (OpenEngineAt over the file), file (OpenEngine: a miss copies out
// of the mapping into a recycled frame) and mmap (frames alias the mapping)
// — the paged ones reading real pages through a deliberately tiny pool. On
// platforms without mmap support file and mmap silently degrade to
// positioned reads, which still must answer identically.
func buildEquivEngines(t *testing.T, net *silc.Network) []equivEngine {
	t.Helper()
	dir := t.TempDir()
	ix, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := silc.Build(net, silc.BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	engines := []equivEngine{
		{"in-RAM", ix, false},
		{"sharded", sx, false},
	}

	writeTemp := func(name string, eng *silc.Engine) string {
		path := filepath.Join(dir, name)
		if _, err := eng.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}

	mono := writeTemp("mono", ix)
	shard := writeTemp("shard", sx)
	open := func(path, src string) *silc.Engine {
		opts := silc.BuildOptions{CacheFraction: 0.01, Mmap: src == "mmap"}
		var eng *silc.Engine
		var err error
		if src == "readat" {
			f, ferr := os.Open(path)
			if ferr != nil {
				t.Fatal(ferr)
			}
			t.Cleanup(func() { f.Close() })
			info, ferr := f.Stat()
			if ferr != nil {
				t.Fatal(ferr)
			}
			eng, err = silc.OpenEngineAt(f, info.Size(), nil, opts)
		} else {
			eng, err = silc.OpenEngine(path, nil, opts)
		}
		if err != nil {
			t.Fatalf("open %s %s: %v", path, src, err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	for _, src := range []string{"readat", "file", "mmap"} {
		engines = append(engines,
			equivEngine{"paged-" + src, open(mono, src), true},
			equivEngine{"sharded-paged-" + src, open(shard, src), true})
	}
	return engines
}

func equivNetworks(t *testing.T) map[string]*silc.Network {
	t.Helper()
	road, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 13, Cols: 13, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := silc.GenerateGrid(11, 11)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := silc.GenerateRingRadial(5, 14, 7)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*silc.Network{"road": road, "grid": grid, "ring": ring}
}

// queryAll runs one query mix against an engine and returns a canonical
// result transcript for comparison.
func queryAll(t testing.TB, eng *silc.Engine, objs *silc.ObjectSet, q silc.VertexID) string {
	t.Helper()
	ctx := context.Background()
	var out []string

	res, err := eng.Query(ctx, objs, q, 5, silc.WithExactDistances())
	if err != nil {
		t.Fatalf("knn(%d): %v", q, err)
	}
	for _, n := range res.Neighbors {
		out = append(out, fmt.Sprintf("knn %.9f", n.Dist))
	}

	rng, err := eng.WithinDistance(ctx, objs, q, 0.35, silc.WithExactDistances())
	if err != nil {
		t.Fatalf("range(%d): %v", q, err)
	}
	dists := make([]float64, 0, len(rng.Neighbors))
	for _, n := range rng.Neighbors {
		dists = append(dists, n.Dist)
	}
	sort.Float64s(dists)
	for _, d := range dists {
		out = append(out, fmt.Sprintf("rng %.9f", d))
	}

	count := 0
	for n, err := range eng.Neighbors(ctx, objs, q) {
		if err != nil {
			t.Fatalf("browse(%d): %v", q, err)
		}
		out = append(out, fmt.Sprintf("brw %.9f", n.Dist))
		if count++; count == 6 {
			break
		}
	}
	s := ""
	for _, line := range out {
		s += line + "\n"
	}
	return s
}

// roundTranscript canonicalizes float noise across engines: distances are
// printed to 9 decimals, which is far below any legitimate difference and
// far above cross-engine rounding (closure sums vs refiner sums).
func TestEquivalenceAcrossBackends(t *testing.T) {
	for name, net := range equivNetworks(t) {
		t.Run(name, func(t *testing.T) {
			engines := buildEquivEngines(t, net)
			n := net.NumVertices()
			var objVerts []silc.VertexID
			for v := 0; v < n; v += 4 {
				objVerts = append(objVerts, silc.VertexID(v))
			}

			queries := []silc.VertexID{0, silc.VertexID(n / 3), silc.VertexID(n / 2), silc.VertexID(n - 1)}
			for _, q := range queries {
				var ref string
				for i, ee := range engines {
					objs, err := silc.NewObjectSet(ee.eng.Network(), objVerts)
					if err != nil {
						t.Fatal(err)
					}
					got := queryAll(t, ee.eng, objs, q)
					if i == 0 {
						ref = got
						continue
					}
					if got != ref {
						t.Fatalf("%s: query %d transcript diverges from in-RAM:\n--- in-RAM\n%s--- %s\n%s",
							ee.name, q, ref, ee.name, got)
					}
				}
			}

			// The paged engines must have actually paged: real reads
			// happened and the working set exceeded the squeezed pool.
			// (Under mmap a "read" is the first-touch CRC verification of a
			// mapped page frame — the counters keep working.)
			for _, ee := range engines {
				if !ee.paged {
					continue
				}
				io := ee.eng.IOStats()
				if io.PageReads == 0 {
					t.Fatalf("%s: no actual page reads", ee.name)
				}
				if io.PageMisses == 0 || io.PageHits == 0 {
					t.Fatalf("%s: implausible pool traffic %+v", ee.name, io)
				}
			}
		})
	}
}

// TestEquivalenceConcurrent hammers all four backends from many goroutines
// over the 1%-sized shared pools — the race-detector workout for the store
// (page frames, run reads, eviction routing) and the pool.
func TestEquivalenceConcurrent(t *testing.T) {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	engines := buildEquivEngines(t, net)
	n := net.NumVertices()
	var objVerts []silc.VertexID
	for v := 0; v < n; v += 3 {
		objVerts = append(objVerts, silc.VertexID(v))
	}

	const workers = 8
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(engines))
	for w := 0; w < workers; w++ {
		for _, ee := range engines {
			wg.Add(1)
			go func(w int, ee equivEngine) {
				defer wg.Done()
				objs, err := silc.NewObjectSet(ee.eng.Network(), objVerts)
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < 12; i++ {
					q := silc.VertexID((w*131 + i*17) % n)
					res, err := ee.eng.Query(ctx, objs, q, 4, silc.WithExactDistances())
					if err != nil {
						errs <- fmt.Errorf("%s: %w", ee.name, err)
						return
					}
					for j := 1; j < len(res.Neighbors); j++ {
						if res.Neighbors[j].Dist < res.Neighbors[j-1].Dist-1e-12 {
							errs <- fmt.Errorf("%s: unsorted result at query %d", ee.name, q)
							return
						}
					}
				}
			}(w, ee)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Cross-check a few distances serially after the storm.
	for _, ee := range engines[1:] {
		for q := 0; q < n; q += 7 {
			want, err := engines[0].eng.Distance(ctx, silc.VertexID(q), silc.VertexID(n-1-q))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ee.eng.Distance(ctx, silc.VertexID(q), silc.VertexID(n-1-q))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(want-got) > 1e-9 {
				t.Fatalf("%s: distance %d: %v vs %v", ee.name, q, got, want)
			}
		}
	}
}
