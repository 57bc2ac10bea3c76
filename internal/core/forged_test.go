package core

import (
	"errors"
	"slices"
	"testing"

	"silc/internal/graph"
	"silc/internal/quadtree"
	"silc/internal/store"
)

// forgedGrid builds the index of an 8×8 grid and forges, with forge, the
// tree of the first hop v on the path 0 → 63: blocks are v's blocks, i the
// one holding 63 and back the color of v's edge back to 0.
func forgedGrid(t *testing.T, forge func(blocks []quadtree.Block, i int, back int32) []quadtree.Block) (ix *Index, src, dst graph.VertexID) {
	t.Helper()
	g, err := graph.GenerateGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix = buildIndex(t, g)
	src, dst = 0, graph.VertexID(g.NumVertices()-1)
	v := ix.NextHopCtx(nil, src, dst)
	tree := &ix.trees[v]
	i, ok := tree.FindIndex(g.Code(dst))
	if !ok {
		t.Fatalf("vertex %d: no block for %d", v, dst)
	}
	targets, _ := g.Neighbors(v)
	back := slices.Index(targets, src)
	if back < 0 {
		t.Fatalf("vertex %d has no edge back to %d", v, src)
	}
	tree.Blocks = forge(tree.Blocks, i, int32(back))
	tree.Seal()
	return ix, src, dst
}

// forgedIndexes is the forged index in RAM and paged from its image.
func forgedIndexes(t *testing.T, ix *Index) map[string]*Index {
	return map[string]*Index{"in-RAM": ix, "paged": pagedIndex(t, ix, 0.05)}
}

// TestForgedColorWalkFails forges one color so that the walk from 0 to 63
// cycles between 0 and its first hop. In RAM and paged, ExactDistance and
// PathCtx must fail with store.ErrCorrupt once the walk has gone n−1 hops,
// instead of running until a deadline.
func TestForgedColorWalkFails(t *testing.T) {
	mem, src, dst := forgedGrid(t, func(blocks []quadtree.Block, i int, back int32) []quadtree.Block {
		blocks[i].Color = back
		return blocks
	})
	n := mem.g.NumVertices()
	for name, ix := range forgedIndexes(t, mem) {
		t.Run(name, func(t *testing.T) {
			qc := NewQueryContext()
			d := ExactDistance(ix, qc, src, dst)
			if err := qc.Err(); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("ExactDistance = %v, err %v; want store.ErrCorrupt", d, err)
			}
			if got := qc.Span.Refinements; got > int64(n-1) {
				t.Fatalf("ExactDistance failed after %d refinements, want ≤ n−1 = %d", got, n-1)
			}
			qc = NewQueryContext()
			if p := ix.PathCtx(qc, src, dst); p != nil || !errors.Is(qc.Err(), store.ErrCorrupt) {
				t.Fatalf("PathCtx = %d vertices, err %v; want nil and store.ErrCorrupt", len(p), qc.Err())
			}
		})
	}
}

// TestMissingBlockFailsQuery deletes the block of the first hop's tree that
// holds the destination. On a strict unbounded index that miss is
// corruption: the interval, the refiner and the path fail the query with
// store.ErrCorrupt instead of panicking.
func TestMissingBlockFailsQuery(t *testing.T) {
	mem, src, dst := forgedGrid(t, func(blocks []quadtree.Block, i int, _ int32) []quadtree.Block {
		return slices.Delete(blocks, i, i+1)
	})
	v := mem.NextHopCtx(nil, src, dst)
	for name, ix := range forgedIndexes(t, mem) {
		t.Run(name, func(t *testing.T) {
			qc := NewQueryContext()
			if iv := ix.DistanceIntervalCtx(qc, v, dst); !errors.Is(qc.Err(), store.ErrCorrupt) || iv.Lo != 0 {
				t.Fatalf("DistanceIntervalCtx(%d, %d) = %+v, err %v; want [0, +Inf) and store.ErrCorrupt", v, dst, iv, qc.Err())
			}
			qc = NewQueryContext()
			ExactDistance(ix, qc, src, dst)
			if !errors.Is(qc.Err(), store.ErrCorrupt) {
				t.Fatalf("ExactDistance err %v, want store.ErrCorrupt", qc.Err())
			}
			qc = NewQueryContext()
			if p := ix.PathCtx(qc, src, dst); p != nil || !errors.Is(qc.Err(), store.ErrCorrupt) {
				t.Fatalf("PathCtx = %d vertices, err %v; want nil and store.ErrCorrupt", len(p), qc.Err())
			}
		})
	}
}
