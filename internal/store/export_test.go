package store

import (
	"sync/atomic"

	"silc/internal/diskio"
	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/quadtree"
)

// RestartEvery is how many blocks of a run lie between two restart
// entries.
const RestartEvery = restartEvery

// flushed numbers the pages Flush reads, so no two flushes, even
// concurrent ones, read the same page.
var flushed atomic.Int64

// Flush reads as many fresh pages past the store's own as its pool holds,
// with a fill that reads nothing, so every page of the store misses on its
// next read: an eviction by touching other pages.
func (s *Store) Flush() {
	pool := s.pager.pool
	beyond := s.pageBase + diskio.PageID(s.sb.blockPages)
	for range pool.Capacity() {
		pool.TouchEvict(beyond+diskio.PageID(flushed.Add(1)), nil)
	}
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
