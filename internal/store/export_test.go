package store

import (
	"silc/internal/diskio"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
)

// RestartEvery is how many blocks of a run lie between two restart
// entries.
const RestartEvery = restartEvery

// EvictVertex routes an eviction of v's first page through the pager, the
// way the pool reports one.
func (s *Store) EvictVertex(v graph.VertexID) {
	if first, _, ok := s.runPages(v); ok {
		s.pager.Evict(s.pageBase + first)
	}
}

// DropFrames releases every resident page frame while the pool still
// counts the pages resident, so the next touch of any page, hit or miss,
// reads it again.
func (s *Store) DropFrames() {
	s.mu.RLock()
	pages := make([]diskio.PageID, 0, len(s.frames))
	for p := range s.frames {
		pages = append(pages, p)
	}
	s.mu.RUnlock()
	for _, p := range pages {
		s.dropPage(p)
	}
}

// FreeFrames returns the number of released frames on the Pager's free
// list.
func (pg *Pager) FreeFrames() int {
	pg.freeMu.Lock()
	defer pg.freeMu.Unlock()
	return len(pg.free)
}

// LookupRun is the single-block lookup over a run held in memory, read
// chunk bytes at a time (the whole run at once when chunk <= 0), the way a
// store reads it page by page.
func LookupRun(data []byte, count, deg int, code geom.Code, chunk int) (quadtree.Block, bool, int, error) {
	if chunk <= 0 {
		chunk = max(len(data), 1)
	}
	r := runReader{run: data, ps: int64(chunk)}
	return lookupRun(&r, count, deg, code)
}

// RunLayout says where a run's bytes lie: Lo is the run's offset in the
// block section, whose pages are PageSize bytes from file offset
// BlockOffset on; Blocks is the run offset of its first block, the end of
// its header; Ends[i] is the end of block i, counted from the first block.
type RunLayout struct {
	Lo, BlockOffset int64
	PageSize        int
	Blocks          int
	Ends            []int
}

// Layout returns the layout of v's run, read straight from the image.
func (s *Store) Layout(v graph.VertexID) (RunLayout, error) {
	lo, hi := s.runOffs[v], s.runOffs[v+1]
	l := RunLayout{Lo: lo, BlockOffset: s.sb.blockOff, PageSize: s.sb.pageSize}
	count := int(s.counts[v])
	if count == 0 {
		return l, nil
	}
	run, err := readSection(s.ra, s.sb.blockOff+lo, hi-lo)
	if err != nil {
		return l, err
	}
	var h runHead
	if err := h.parse(run, len(run), count, s.g.Degree(v)); err != nil {
		return l, err
	}
	l.Blocks = h.blocks
	d := runDecoder{restart: runStart, data: run[h.blocks:], dict: h.dict}
	var b quadtree.Block
	for d.i < count {
		if err := d.next(&b); err != nil {
			return l, err
		}
		l.Ends = append(l.Ends, d.at)
	}
	return l, nil
}

// WithPoolPages returns opts with the private pool sized to exactly pages
// pages, whatever CacheFraction says.
func WithPoolPages(opts OpenOptions, pages int) OpenOptions {
	opts.poolPages = pages
	return opts
}
