package partition

import (
	"bytes"
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
	oldMagic := append([]byte(nil), valid...)
	oldMagic[7] = '1' // SILCSPG2 -> the removed format's magic
	f.Add(oldMagic)
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
