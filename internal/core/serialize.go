package core

import (
	"io"

	"silc/internal/graph"
	"silc/internal/quadtree"
	"silc/internal/store"
)

// treeFor resolves one vertex's quadtree for serialization: directly for a
// memory-resident index, through the paged source (untracked) for a
// disk-backed one.
func (ix *Index) treeFor(v graph.VertexID) (*quadtree.Tree, error) {
	if ix.src == nil {
		return &ix.trees[v], nil
	}
	return ix.src.Tree(nil, v)
}

// pagedSource assembles the store.Source for serializing this index. Tree
// failures (an unreadable page behind a disk-backed index) are recorded in
// *treeErr, which the caller must check after the write/plan completes.
func (ix *Index) pagedSource(treeErr *error) store.Source {
	return store.Source{
		Graph:   ix.g,
		Radius:  ix.radius,
		Lenient: ix.lenient,
		Tree: func(v graph.VertexID) *quadtree.Tree {
			t, err := ix.treeFor(v)
			if err != nil {
				if *treeErr == nil {
					*treeErr = err
				}
				return &quadtree.Tree{MinLambda: 1}
			}
			return t
		},
	}
}

// WritePaged serializes the index in the page-aligned on-disk format of
// internal/store — the format OpenIndex / store.Open reads back with demand
// paging. The network is embedded, so the image is self-contained.
func (ix *Index) WritePaged(w io.Writer) (int64, error) {
	var treeErr error
	written, err := store.Write(w, ix.pagedSource(&treeErr))
	if treeErr != nil {
		return written, treeErr
	}
	return written, err
}

// PlanPaged lays out the paged image WritePaged would produce without
// writing it: the plan reports per-section sizes (ImagePlan.Info) and can
// then be streamed once with WriteTo. The sharded
// writer and silcbuild's size table both build on this.
func (ix *Index) PlanPaged() (*store.ImagePlan, error) {
	var treeErr error
	p, err := store.PlanImage(ix.pagedSource(&treeErr))
	if treeErr != nil {
		return nil, treeErr
	}
	return p, err
}
