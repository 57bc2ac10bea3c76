package store

import (
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
)

// RestartEvery is how many blocks of a run lie between two restart
// points.
const RestartEvery = restartEvery

// Validated reports whether v's run has passed a full validating pass, the
// state that decides which path Lookup takes.
func (s *Store) Validated(v graph.VertexID) bool { return s.validated.has(v) }

// EvictVertex routes an eviction of v's first page through the pager, the
// way the pool reports one.
func (s *Store) EvictVertex(v graph.VertexID) {
	if first, _, ok := s.layout.OwnerPages(int(v)); ok {
		s.pager.Evict(s.pageBase + first)
	}
}

// FreeFrames returns the number of released frames on the Pager's free
// list.
func (pg *Pager) FreeFrames() int {
	pg.freeMu.Lock()
	defer pg.freeMu.Unlock()
	return len(pg.free)
}

// LookupRun is the single-block lookup with no restart points: its
// validated mode decodes from the start of the run.
func LookupRun(data []byte, count, deg int, code geom.Code, validated bool) (quadtree.Block, bool, int, error) {
	return lookupRun(data, count, deg, code, nil, validated)
}

// IndexRun runs the full validating pass of the lookup over a run,
// recording its restart points, and returns the validated lookup that
// resumes from them, or the pass's error when the run fails it.
func IndexRun(data []byte, count, deg int) (func(geom.Code) (quadtree.Block, bool, int, error), error) {
	points := make([]restart, restartPoints(count))
	if _, _, _, err := lookupRun(data, count, deg, 0, points, false); err != nil {
		return nil, err
	}
	return func(code geom.Code) (quadtree.Block, bool, int, error) {
		return lookupRun(data, count, deg, code, points, true)
	}, nil
}

// WithPoolPages returns opts with the private pool sized to exactly pages
// pages, whatever CacheFraction says.
func WithPoolPages(opts OpenOptions, pages int) OpenOptions {
	opts.poolPages = pages
	return opts
}
