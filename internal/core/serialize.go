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
// internal/store — the format store.Open reads back with demand paging —
// and returns the layout it wrote (Total is the byte count). The network
// is embedded, so the image is self-contained.
func (ix *Index) WritePaged(w io.Writer) (store.ImageInfo, error) {
	p, err := ix.PlanPaged(false)
	if err != nil {
		return store.ImageInfo{}, err
	}
	if _, err := p.WriteTo(w); err != nil {
		return store.ImageInfo{}, err
	}
	return p.Info(), nil
}

// PlanPaged lays out the paged image WritePaged would produce without
// writing it: the plan reports per-section sizes (ImagePlan.Info) and can
// then be streamed once with WriteTo. WritePaged and the sharded writer,
// which plans its cells noNetwork (without a network section), build on it.
func (ix *Index) PlanPaged(noNetwork bool) (*store.ImagePlan, error) {
	var treeErr error
	src := ix.pagedSource(&treeErr)
	src.NoNetwork = noNetwork
	p, err := store.PlanImage(src)
	if treeErr != nil {
		return nil, treeErr
	}
	return p, err
}
