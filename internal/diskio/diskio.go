// Package diskio is the buffer pool of the disk-resident setting of the
// paper's evaluation: the SILC quadtrees live in fixed-size pages behind an
// LRU pool sized to a fraction of the image's block pages (the paper uses
// 5%). The paged store (internal/store) is the pool's only user: it reads
// every page through the pool, which holds the page frames and fills a
// missed one by the store's read. Algorithms report the page hits and
// misses they caused.
//
// The pool is one exact LRU under one mutex. Per-query attribution happens
// through a query-owned *Stats counter passed into every read (nil for
// untracked access).
package diskio

import (
	"sync"
)

// PageID identifies one block page of an index: a cell store's pages sit
// at its page base in the id space its sharded image's stores share.
type PageID int64

// Stats counts buffer-pool traffic. Hits/Misses/Evictions are charged
// by the pool itself; Reads and BlocksDecoded are charged by the paged
// store (the only layer that knows whether a miss turned into a real
// page read — a positioned read or a copy out of the image's mapping — and
// how many quadtree blocks its decoder passed) —
// they ride here so one counter follows the per-query attribution
// plumbing through every layer, the cluster's wire included (the binary
// frames of internal/cluster/wire.go). The JSON tags serve only the
// benchmark's JSON codec rung, cluster.json_codec_us.
type Stats struct {
	Hits   int64 `json:"hits,omitempty"`
	Misses int64 `json:"misses,omitempty"`
	// Evictions counts pages this counter's reads displaced from the
	// pool. Like Hits/Misses it is charged exactly once per displaced
	// page, so per-query sums reproduce pool aggregates.
	Evictions int64 `json:"evictions,omitempty"`
	// Reads counts the pages a paged store actually read: a positioned
	// read, or a copy out of the image's mapping. Every miss is one read
	// attempt, so Reads equals Misses unless a read fails.
	Reads int64 `json:"reads,omitempty"`
	// BlocksDecoded counts quadtree blocks a paged store's decoder actually
	// passed, by lookups and tree decodes alike (zero on in-RAM indexes).
	BlocksDecoded int64 `json:"blocks_decoded,omitempty"`
}

// Accesses returns total page touches.
func (s Stats) Accesses() int64 { return s.Hits + s.Misses }

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Reads += o.Reads
	s.BlocksDecoded += o.BlocksDecoded
}

// Pool is an exact LRU buffer pool whose entries own their page frames,
// safe for unlimited concurrent users. One mutex guards the recency list,
// the page map, the free frames and the aggregate counters. A hit copies
// the bytes it wants out of the resident frame under the lock; a miss
// fills a free frame outside it, so no reader ever touches a frame the
// pool may recycle.
type Pool struct {
	mu       sync.Mutex
	capacity int
	slots    map[PageID]int32 // resident page -> its entry
	entries  []entry          // at most capacity, never shrinks
	head     int32            // most recently used entry, -1 when empty
	tail     int32            // least recently used entry
	// free holds frames no entry owns: an evicted page's, a failed fill's,
	// or one a concurrent fill of the same page made redundant. Entries
	// plus free frames never exceed capacity+1, so a full pool keeps one
	// frame for its next miss and allocates no more.
	free  [][]byte
	stats Stats
}

type entry struct {
	id         PageID
	frame      []byte
	prev, next int32
}

// NewPool returns a pool of the given page capacity (minimum 1). shards is
// ignored: the pool is one LRU. The argument stays only because the
// benchmark module calls NewPool with it (ROADMAP 1(i)).
func NewPool(capacity, shards int) *Pool {
	capacity = max(capacity, 1)
	return &Pool{
		capacity: capacity,
		slots:    make(map[PageID]int32, capacity),
		entries:  make([]entry, 0, capacity),
		head:     -1,
		tail:     -1,
	}
}

// Read copies the bytes of page id from offset from on into dst (an empty
// dst wants none) and charges the access to the pool and, when qs is
// non-nil, to the caller's counter (qs must be owned by the calling
// goroutine): exactly one hit or one miss, the same outcome the aggregates
// get, so summing every caller's counters reproduces them.
//
// On a miss Read calls fill outside the lock with a free frame (nil or of
// any length when none is free); fill returns the frame holding the page,
// its own allocation if it had to make one. The filled frame joins the
// pool as the most recently used page, and the least recently used page's
// frame, when the pool was full, goes onto the free list. A fill's error
// is returned and leaves the page absent, so its next read misses again.
// Concurrent misses of one page each fill a frame; the first to finish
// joins the pool.
func (p *Pool) Read(id PageID, qs *Stats, dst []byte, from int, fill func(frame []byte) ([]byte, error)) error {
	p.mu.Lock()
	if i, ok := p.slots[id]; ok {
		p.stats.Hits++
		p.moveToFront(i)
		copy(dst, p.entries[i].frame[from:])
		p.mu.Unlock()
		if qs != nil {
			qs.Hits++
		}
		return nil
	}
	p.stats.Misses++
	var frame []byte
	if n := len(p.free); n > 0 {
		frame, p.free[n-1] = p.free[n-1], nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if qs != nil {
		qs.Misses++
	}

	frame, err := fill(frame)
	if err == nil {
		copy(dst, frame[from:]) // the frame is still this reader's alone
	}
	p.mu.Lock()
	evicted := false
	if _, ok := p.slots[id]; err != nil || ok {
		p.park(frame)
	} else {
		evicted = p.insert(id, frame)
	}
	p.mu.Unlock()
	if evicted && qs != nil {
		qs.Evictions++
	}
	return err
}

// insert makes page id, filled into frame, the most recently used page,
// evicting the least recently used one when the pool is full; it reports
// whether it evicted. The caller holds p.mu.
func (p *Pool) insert(id PageID, frame []byte) (evicted bool) {
	i := int32(len(p.entries))
	var old []byte
	if len(p.entries) < p.capacity {
		p.entries = append(p.entries, entry{})
	} else {
		i = p.tail
		p.detach(i)
		delete(p.slots, p.entries[i].id)
		old, evicted = p.entries[i].frame, true
		p.stats.Evictions++
	}
	p.entries[i] = entry{id: id, frame: frame}
	p.slots[id] = i
	p.pushFront(i)
	p.park(old)
	return evicted
}

// park puts frame (when non-nil) on the free list and drops free frames
// past the pool's bound of capacity+1 frames held. The caller holds p.mu.
func (p *Pool) park(frame []byte) {
	if frame != nil {
		p.free = append(p.free, frame)
	}
	for len(p.free) > 0 && len(p.entries)+len(p.free) > p.capacity+1 {
		p.free[len(p.free)-1] = nil
		p.free = p.free[:len(p.free)-1]
	}
}

func (p *Pool) detach(i int32) {
	prev, next := p.entries[i].prev, p.entries[i].next
	if prev >= 0 {
		p.entries[prev].next = next
	} else {
		p.head = next
	}
	if next >= 0 {
		p.entries[next].prev = prev
	} else {
		p.tail = prev
	}
}

func (p *Pool) pushFront(i int32) {
	p.entries[i].prev, p.entries[i].next = -1, p.head
	if p.head >= 0 {
		p.entries[p.head].prev = i
	}
	p.head = i
	if p.tail < 0 {
		p.tail = i
	}
}

func (p *Pool) moveToFront(i int32) {
	if p.head != i {
		p.detach(i)
		p.pushFront(i)
	}
}

// TouchEvict reads page id wanting no bytes, with a fill that reads
// nothing. It stays only because the benchmark module times the pool's
// hit and miss paths with it (ROADMAP 1(i)).
func (p *Pool) TouchEvict(id PageID, qs *Stats) {
	_ = p.Read(id, qs, nil, 0, func(frame []byte) ([]byte, error) { return frame, nil })
}

// Capacity returns the page capacity.
func (p *Pool) Capacity() int { return p.capacity }

// Len returns the number of resident pages.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots)
}

// Stats returns the aggregate counters. A nil *Pool — an in-RAM index has
// none — counts nothing.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the aggregate counters without evicting pages; on a
// nil *Pool it does nothing.
func (p *Pool) ResetStats() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.stats = Stats{}
	p.mu.Unlock()
}
