package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"silc/internal/geom"
)

// The network text format is line oriented:
//
//	# comments and blank lines are ignored
//	silc-network 1
//	<numVertices> <numDirectedEdges>
//	<x> <y>            one line per vertex, unit-square coordinates
//	<from> <to> <w>    one line per directed edge
//
// The format is self-describing enough for interchange with the cmd tools
// and small enough to diff in tests.

const formatMagic = "silc-network"
const formatVersion = 1

// Write serializes g in the network text format.
func Write(w io.Writer, g *Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s %d\n", formatMagic, formatVersion)
	fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		p := g.Point(VertexID(v))
		fmt.Fprintf(bw, "%.17g %.17g\n", p.X, p.Y)
	}
	for v := 0; v < g.NumVertices(); v++ {
		targets, weights := g.Neighbors(VertexID(v))
		for i := range targets {
			fmt.Fprintf(bw, "%d %d %.17g\n", v, targets[i], weights[i])
		}
	}
	return bw.Flush()
}

// Read parses a network in the text format and validates it through Builder.
func Read(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	next := func() (string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, nil
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}

	header, err := next()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	var version int
	f, err := fields(header, 2)
	if err == nil && f[0] != formatMagic {
		err = fmt.Errorf("magic %q, want %q", f[0], formatMagic)
	}
	if err == nil {
		version, err = strconv.Atoi(f[1])
	}
	if err != nil {
		return nil, fmt.Errorf("graph: bad header %q: %w", header, err)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("graph: unsupported format version %d", version)
	}

	counts, err := next()
	if err != nil {
		return nil, fmt.Errorf("graph: reading counts: %w", err)
	}
	var n, m int
	f, err = fields(counts, 2)
	if err == nil {
		n, err = strconv.Atoi(f[0])
	}
	if err == nil {
		m, err = strconv.Atoi(f[1])
	}
	if err != nil {
		return nil, fmt.Errorf("graph: bad counts %q: %w", counts, err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative counts %d %d", n, m)
	}

	b := NewBuilder()
	for i := 0; i < n; i++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("graph: reading vertex %d: %w", i, err)
		}
		var p geom.Point
		f, err := fields(line, 2)
		if err == nil {
			p.X, err = strconv.ParseFloat(f[0], 64)
		}
		if err == nil {
			p.Y, err = strconv.ParseFloat(f[1], 64)
		}
		if err != nil {
			return nil, fmt.Errorf("graph: bad vertex line %q: %w", line, err)
		}
		b.AddVertex(p)
	}
	for i := 0; i < m; i++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		var from, to int64
		var w float64
		f, err := fields(line, 3)
		if err == nil {
			from, err = strconv.ParseInt(f[0], 10, 32)
		}
		if err == nil {
			to, err = strconv.ParseInt(f[1], 10, 32)
		}
		if err == nil {
			w, err = strconv.ParseFloat(f[2], 64)
		}
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", line, err)
		}
		b.AddEdge(VertexID(from), VertexID(to), w)
	}
	return b.Build()
}

// fields splits a line at white space and requires exactly n fields. The
// values are then parsed with strconv, which fmt's scanning verbs use too.
func fields(line string, n int) ([]string, error) {
	f := strings.Fields(line)
	if len(f) != n {
		return nil, fmt.Errorf("%d fields, want %d", len(f), n)
	}
	return f, nil
}
