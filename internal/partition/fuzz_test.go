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
// bytes; beyond parsing, a successful open is queried across cells and
// within vertex 0's cell, so lazily-detected corruption also surfaces as
// errors. Its seeds are a valid file,
// a truncation and a bit flip of it, the file under the magics of the two
// removed formats, and forgeCell's image, whose checksums all hold.
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
	for _, version := range []byte{'1', '2'} { // the removed formats' magics
		oldMagic := append([]byte(nil), valid...)
		oldMagic[7] = version
		f.Add(oldMagic)
	}
	_, img := buildPagedImage(f)
	f.Add(forgeCell(f, img, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		px, err := OpenPaged(bytes.NewReader(data), int64(len(data)), Options{poolPages: 4})
		if err != nil {
			return
		}
		qc := core.NewQueryContext()
		n := px.Network().NumVertices()
		core.ExactDistance(px, qc, 0, graph.VertexID(n-1))
		// A cross-cell query searches the network on the source's side; a
		// query within the source's cell walks that cell's quadtrees.
		for v := 1; v < n; v++ {
			if px.CellOf(graph.VertexID(v)) == px.CellOf(0) {
				core.ExactDistance(px, core.NewQueryContext(), 0, graph.VertexID(v))
				break
			}
		}
	})
}
