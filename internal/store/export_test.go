package store

import "silc/internal/graph"

// VertexState reports whether v's decoded tree is cached, whether its
// streamed bit is set, and whether its run has passed a full validating
// pass — the state that decides which path Lookup takes.
func (s *Store) VertexState(v graph.VertexID) (cached, streamed, validated bool) {
	return s.cachedTree(v) != nil, s.streamed.has(v), s.validated.has(v)
}

// EvictVertex routes an eviction of v's first page through the pager, the
// way the pool reports one, releasing v's tree and clearing its streamed bit.
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
