package partition

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
)

func fuzzNetwork(tb testing.TB) *graph.Network {
	tb.Helper()
	g, err := graph.GenerateGrid(6, 6)
	if err != nil {
		tb.Fatalf("grid: %v", err)
	}
	return g
}

// shd1Seeds produces the checked-in seed corpus for the sharded
// deserializer: a valid SILCSHD1 stream plus truncations, bit flips, and a
// corrupted boundary count.
func shd1Seeds(tb testing.TB) [][]byte {
	tb.Helper()
	g := fuzzNetwork(tb)
	sx, err := Build(g, Options{Partitions: 3})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := sx.WriteTo(&buf); err != nil {
		tb.Fatalf("write: %v", err)
	}
	valid := buf.Bytes()
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0x08
	bigNB := append([]byte(nil), valid...)
	bigNB[16] = 0xFF // inflate the boundary-vertex count
	bigNB[17] = 0xFF
	return [][]byte{
		valid,
		valid[:12],
		valid[:len(valid)/4],
		valid[:len(valid)-3],
		flip,
		bigNB,
		{},
		[]byte("SILCSHD1junkjunkjunk"),
	}
}

// FuzzSHD1 feeds corrupted and truncated byte streams to the sharded-index
// deserializer: error-not-panic, whatever the bytes.
func FuzzSHD1(f *testing.F) {
	for _, seed := range shd1Seeds(f) {
		f.Add(seed)
	}
	g := fuzzNetwork(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sx, err := Load(bytes.NewReader(data), g)
		if err == nil && sx == nil {
			t.Fatal("nil index without error")
		}
	})
}

// FuzzOpenPagedSharded drives the sharded paged opener with arbitrary
// bytes; beyond parsing, a successful open is queried once so lazily
// -detected corruption also surfaces as errors.
func FuzzOpenPagedSharded(f *testing.F) {
	g := fuzzNetwork(f)
	sx, err := Build(g, Options{Partitions: 3})
	if err != nil {
		f.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := sx.WritePaged(&buf); err != nil {
		f.Fatalf("write paged: %v", err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flip := append([]byte(nil), valid...)
	flip[len(flip)-100] ^= 0xFF
	f.Add(flip)
	f.Add([]byte("SILCSPG1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		px, err := OpenPaged(bytes.NewReader(data), int64(len(data)), Options{CachePages: 4})
		if err != nil {
			return
		}
		qc := core.NewQueryContext()
		n := px.Network().NumVertices()
		core.ExactDistance(px, qc, 0, graph.VertexID(n-1))
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz when SILC_GEN_CORPUS=1.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("SILC_GEN_CORPUS") == "" {
		t.Skip("set SILC_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSHD1")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range shd1Seeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+strconv.Itoa(i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
