package silc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"silc"
	"silc/internal/bench"
)

// The exact-count gates. BENCH_F3.json and BENCH_PG.json at the repository
// root pin what the paper's evaluation states as counts — page misses, page
// reads and refinements per query, paged image sizes and cold pool traffic —
// for a fixed 48×48 smoke suite. Every number is a sum of integer counts over
// a single-threaded workload on a deterministic LRU and page layout, so it is
// the same on every machine and every run: any drift is a change in paging,
// encoding or search behaviour, never noise. Regenerate deliberately with
// SILC_UPDATE_GOLDEN=1 go test -run CountsPinned . and justify the diff.
const (
	countLattice = 48 // rows == cols of the smoke lattice
	countQueries = 24 // queries per F3 sweep point
)

type f3Counts struct {
	Lattice         int       `json:"lattice"`
	QueriesPerPoint int       `json:"queries_per_point"`
	Points          []f3Point `json:"points"`
}

type f3Point struct {
	Label string `json:"label"`
	K     int    `json:"k"`
	// Fraction is |S|/N, the object-set density of the point.
	Fraction float64 `json:"s_fraction"`
	// PerQuery maps algorithm name to its mean per-query counts over the
	// point's fixed workload, each batch starting from a cold store.
	PerQuery map[string]f3PerQuery `json:"per_query"`
}

type f3PerQuery struct {
	PageMisses  float64 `json:"page_misses"`
	PageReads   float64 `json:"page_reads"`
	Refinements float64 `json:"refinements"`
}

type pgCounts struct {
	Lattice int        `json:"lattice"`
	Images  []pgImage  `json:"images"`
	ColdIO  []pgColdIO `json:"cold_io"`
}

// pgImage is one index layout's paged image size.
type pgImage struct {
	Name       string `json:"name"`
	DeltaBytes int64  `json:"delta_bytes"`
}

// pgColdIO is the pool traffic of a fixed cold kNN scan under a 5% pool.
type pgColdIO struct {
	Name   string `json:"name"`
	Reads  int64  `json:"page_reads"`
	Misses int64  `json:"page_misses"`
	Hits   int64  `json:"page_hits"`
}

// f3Suite runs the paper's |S|=0.07N column at k=10 and k=100 through every
// kNN algorithm on the real paged store, once per test binary, and returns
// the per-query page misses, page reads and refinements of each point.
func f3Suite(t *testing.T) f3Counts {
	t.Helper()
	f3Once.Do(func() {
		env, err := bench.NewEnv(countLattice, countLattice, bench.DefaultSeed, true)
		if err != nil {
			f3Once.err = err
			return
		}
		defer env.Close()
		specs := []bench.SweepSpec{
			{Label: "k=10", Fraction: 0.07, K: 10},
			{Label: "k=100", Fraction: 0.07, K: 100},
		}
		pts, err := env.Sweep(specs, countQueries, bench.Algorithms(), bench.DefaultSeed+2)
		if err != nil {
			f3Once.err = err
			return
		}
		out := f3Counts{Lattice: countLattice, QueriesPerPoint: countQueries}
		for _, pt := range pts {
			p := f3Point{Label: pt.Spec.Label, K: pt.Spec.K, Fraction: pt.Spec.Fraction, PerQuery: map[string]f3PerQuery{}}
			for name, agg := range pt.Per {
				p.PerQuery[name] = f3PerQuery{PageMisses: agg.IOMisses, PageReads: agg.IOReads, Refinements: agg.Refinements}
			}
			out.Points = append(out.Points, p)
		}
		f3Once.out = out
	})
	if f3Once.err != nil {
		t.Fatal(f3Once.err)
	}
	return f3Once.out
}

var f3Once struct {
	sync.Once
	out f3Counts
	err error
}

// TestF3CountsPinned compares the F3 suite's per-query counts with
// BENCH_F3.json.
func TestF3CountsPinned(t *testing.T) {
	if silc.RaceEnabled {
		t.Skip("single-threaded and deterministic; the race detector only slows it")
	}
	t.Parallel()
	checkCounts(t, "F3", f3Suite(t))
}

// TestF3PageOrdering holds the F3 suite to the paper's claim for Figure 3:
// at every point KNN-M reads no more SILC pages per query than INN, KNN and
// KNN-I.
func TestF3PageOrdering(t *testing.T) {
	if silc.RaceEnabled {
		t.Skip("single-threaded and deterministic; the race detector only slows it")
	}
	t.Parallel()
	for _, p := range f3Suite(t).Points {
		m, ok := p.PerQuery["KNN-M"]
		if !ok {
			t.Fatalf("%s: no KNN-M counts", p.Label)
		}
		for _, name := range []string{"INN", "KNN", "KNN-I"} {
			o, ok := p.PerQuery[name]
			if !ok {
				t.Fatalf("%s: no %s counts", p.Label, name)
			}
			if m.PageReads > o.PageReads {
				t.Errorf("%s: KNN-M reads %v pages per query, %s %v", p.Label, m.PageReads, name, o.PageReads)
			}
		}
	}
}

// TestPGCountsPinned builds the 48×48 index monolithic and in four cells,
// then runs a fixed cold kNN scan (every 7th vertex, k=10) against the
// monolithic image behind a 5% pool, and compares image sizes and pool
// counters with BENCH_PG.json.
func TestPGCountsPinned(t *testing.T) {
	if silc.RaceEnabled {
		t.Skip("single-threaded and deterministic; the race detector only slows it")
	}
	t.Parallel()
	seed := int64(bench.DefaultSeed)
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: countLattice, Cols: countLattice, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	monoIx, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shardedIx, err := silc.Build(net, silc.BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := pgCounts{Lattice: countLattice}
	var mono []byte
	for _, l := range []struct {
		name string
		ix   *silc.Engine
	}{{"mono", monoIx}, {"sharded-4", shardedIx}} {
		var buf bytes.Buffer
		if _, err := l.ix.WritePaged(&buf); err != nil {
			t.Fatal(err)
		}
		if l.name == "mono" {
			mono = buf.Bytes()
		}
		out.Images = append(out.Images, pgImage{Name: l.name, DeltaBytes: int64(buf.Len())})
	}

	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(net.NumVertices())
	verts := make([]silc.VertexID, 48)
	for i := range verts {
		verts[i] = silc.VertexID(perm[i])
	}
	objs, err := silc.NewObjectSet(net, verts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, err := silc.OpenEngineAt(bytes.NewReader(mono), int64(len(mono)), nil, silc.BuildOptions{CacheFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < net.NumVertices(); q += 7 {
		if _, err := cold.Query(ctx, objs, silc.VertexID(q), 10); err != nil {
			t.Fatalf("cold query %d: %v", q, err)
		}
	}
	st := cold.IOStats()
	out.ColdIO = append(out.ColdIO, pgColdIO{Name: "pg2", Reads: st.PageReads, Misses: st.PageMisses, Hits: st.PageHits})
	checkCounts(t, "PG", out)
}

// checkCounts marshals result in the committed {"id","result"} shape and
// compares it byte for byte with BENCH_<id>.json, naming the first line that
// differs.
func checkCounts(t *testing.T, id string, result any) {
	t.Helper()
	got, err := json.MarshalIndent(map[string]any{"id": id, "result": result}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := "BENCH_" + id + ".json"
	want, ok := goldenFile(t, path, got)
	if !ok || bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return fmt.Sprintf("<end of file after %d lines>", len(lines))
	}
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	t.Fatalf("%s drifted at line %d:\n  got  %s\n  want %s\n(a count moved; if that is intended, regenerate with SILC_UPDATE_GOLDEN=1 and justify the diff)",
		path, i+1, strings.TrimSpace(line(gl, i)), strings.TrimSpace(line(wl, i)))
}
