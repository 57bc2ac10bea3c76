// Package diskio is the buffer pool of the disk-resident setting of the
// paper's evaluation: the SILC quadtrees live in fixed-size pages behind an
// LRU pool sized to a fraction of the image's block pages (the paper uses
// 5%). The paged store (internal/store) is the pool's only user: it charges
// every page it reads, turns every miss into a real read, and releases the
// frame of every page the pool evicts. Algorithms report the page hits and
// misses they caused.
//
// The buffer pool is sharded: page ids hash onto N independently
// mutex-guarded LRU shards, so unlimited concurrent queries can share one
// pool without serializing on a single lock. Aggregate hit/miss counters are
// atomic; per-query attribution happens through a query-owned *Stats counter
// passed into every Touch call (nil for untracked access).
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
	// Evictions counts pages this counter's touches displaced from the
	// pool. Like Hits/Misses it is charged exactly once per displaced
	// page, so per-query sums reproduce pool aggregates.
	Evictions int64 `json:"evictions,omitempty"`
	// Reads counts the pages a paged store actually read: a positioned
	// read, or a copy out of the image's mapping. Every miss is one, so
	// Reads equals Misses except where a frame lost to a concurrent
	// eviction is read again on a hit.
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

// Cache is a single LRU page list — the building block of one Pool shard.
// The zero value is unusable; create with NewCache. Not safe for concurrent
// use on its own: Pool guards each Cache with its shard mutex.
//
// Two representations back the same LRU semantics, picked by capacity. At or
// below smallCacheMax, pages live in one array kept in MRU order: lookup is
// a linear scan and move-to-front a short copy, all within a cache line or
// two — the common shape for small images, whose 5% capacity shards into a
// handful of pages each. Above it, the page -> slot map is an open-addressed
// table (Fibonacci hashing, linear probing, backward-shift deletion) over a
// doubly-linked slot list — a couple of flat array probes with no Go-map
// hashing overhead and no tombstone accumulation.
type Cache struct {
	capacity int
	// Small representation: pages[0:used] in MRU order.
	// Large representation: pages indexed by stable slot; table/prev/next
	// maintain the hash map and recency list.
	pages []PageID
	table []int32 // open-addressed: slot index, or -1 for empty; nil in small mode
	mask  uint64  // len(table)-1; len is a power of two
	shift uint    // 64 - log2(len(table)), for Fibonacci hashing
	prev  []int32
	next  []int32
	head  int32 // most recently used
	tail  int32 // least recently used
	used  int
	stats Stats
}

// smallCacheMax is the largest capacity served by the MRU-array
// representation: 16 pages span two cache lines, which a scan-plus-shift
// handles faster than any hash probe sequence.
const smallCacheMax = 16

// NewCache returns an LRU cache holding up to capacity pages (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		capacity: capacity,
		pages:    make([]PageID, capacity),
		head:     -1,
		tail:     -1,
	}
	if capacity <= smallCacheMax {
		return c
	}
	// Table sized to the next power of two past 2x capacity keeps the load
	// factor at or below 0.5, so linear probe chains stay short.
	size := 8
	for size < 2*capacity {
		size <<= 1
	}
	log2 := 0
	for 1<<log2 < size {
		log2++
	}
	c.table = make([]int32, size)
	c.mask = uint64(size - 1)
	c.shift = uint(64 - log2)
	c.prev = make([]int32, capacity)
	c.next = make([]int32, capacity)
	for i := range c.table {
		c.table[i] = -1
	}
	return c
}

// home returns p's preferred table index (Fibonacci hashing).
func (c *Cache) home(p PageID) uint64 {
	return (uint64(p) * 0x9E3779B97F4A7C15) >> c.shift
}

// find probes for p, returning its table index and slot, or tableIdx with
// slot -1 when absent (tableIdx then points at the empty probe endpoint).
func (c *Cache) find(p PageID) (tableIdx uint64, slot int32) {
	i := c.home(p)
	for {
		s := c.table[i]
		if s < 0 || c.pages[s] == p {
			return i, s
		}
		i = (i + 1) & c.mask
	}
}

// unlink removes the entry at table index i, backward-shifting the probe
// chain behind it so future probes never cross a hole mid-chain.
func (c *Cache) unlink(i uint64) {
	j := i
	for {
		c.table[i] = -1
		for {
			j = (j + 1) & c.mask
			s := c.table[j]
			if s < 0 {
				return
			}
			h := c.home(c.pages[s])
			// Move s up to the hole unless its home lies in (i, j] — in
			// cyclic terms — in which case the chain still reaches it.
			var reachable bool
			if i <= j {
				reachable = h > i && h <= j
			} else {
				reachable = h > i || h <= j
			}
			if !reachable {
				c.table[i] = s
				i = j
				break
			}
		}
	}
}

// Capacity returns the configured page capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of resident pages.
func (c *Cache) Len() int { return c.used }

// Stats returns the accumulated hit/miss counts.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without evicting pages.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// touchSmall is TouchEvict for the MRU-array representation.
func (c *Cache) touchSmall(p PageID) (hit bool, evicted PageID, hasEvict bool) {
	pages := c.pages
	for i := 0; i < c.used; i++ {
		if pages[i] == p {
			c.stats.Hits++
			copy(pages[1:i+1], pages[:i])
			pages[0] = p
			return true, 0, false
		}
	}
	c.stats.Misses++
	if c.used < c.capacity {
		c.used++
	} else {
		evicted, hasEvict = pages[c.used-1], true
		c.stats.Evictions++
	}
	copy(pages[1:c.used], pages[:c.used-1])
	pages[0] = p
	return false, evicted, hasEvict
}

// Touch accesses page p, returning true on a hit. On a miss the page is
// loaded, evicting the least recently used page if the pool is full.
func (c *Cache) Touch(p PageID) bool {
	hit, _, _ := c.TouchEvict(p)
	return hit
}

// TouchEvict is Touch with eviction feedback: when loading p displaced a
// resident page, evicted holds its id and hasEvict is true. Callers that
// cache decoded structures against resident pages (the paged index store)
// use the feedback to actually release the displaced data.
func (c *Cache) TouchEvict(p PageID) (hit bool, evicted PageID, hasEvict bool) {
	if c.table == nil {
		return c.touchSmall(p)
	}
	ti, slot := c.find(p)
	if slot >= 0 {
		c.stats.Hits++
		c.moveToFront(slot)
		return true, 0, false
	}
	c.stats.Misses++
	if c.used < c.capacity {
		slot = int32(c.used)
		c.used++
	} else {
		slot = c.tail
		c.detach(slot)
		evicted, hasEvict = c.pages[slot], true
		c.stats.Evictions++
		evIdx, _ := c.find(evicted)
		c.unlink(evIdx)
		// The backward shift may have filled the probe endpoint found for p;
		// re-probe from p's home.
		for ti = c.home(p); c.table[ti] >= 0; ti = (ti + 1) & c.mask {
		}
	}
	c.pages[slot] = p
	c.table[ti] = slot
	c.pushFront(slot)
	return false, evicted, hasEvict
}

func (c *Cache) detach(slot int32) {
	p, n := c.prev[slot], c.next[slot]
	if p >= 0 {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.prev[n] = p
	} else {
		c.tail = p
	}
}

func (c *Cache) pushFront(slot int32) {
	c.prev[slot] = -1
	c.next[slot] = c.head
	if c.head >= 0 {
		c.prev[c.head] = slot
	}
	c.head = slot
	if c.tail < 0 {
		c.tail = slot
	}
}

func (c *Cache) moveToFront(slot int32) {
	if c.head == slot {
		return
	}
	c.detach(slot)
	c.pushFront(slot)
}

// DefaultPoolShards is the shard count of a sharded buffer pool. Power of
// two so shard selection is a mask; large enough that tens of goroutines
// rarely collide on one shard mutex.
const DefaultPoolShards = 64

// Pool is a sharded LRU buffer pool, safe for unlimited concurrent users.
// Pages hash onto shards (Fibonacci hashing of the PageID), each shard is a
// mutex-guarded Cache holding its slice of the total capacity. Hit/miss
// aggregates live in the per-shard caches — already under the shard mutex the
// touch holds — rather than in pool-wide atomics, so concurrent queries never
// ping-pong a shared counter cache line; Stats sums across shards on demand.
// Per-shard LRU approximates global LRU the way production buffer managers
// do: eviction order is exact within a shard and pages spread uniformly
// across shards.
type Pool struct {
	shards []poolShard
	shift  uint // 64 - log2(len(shards))
}

type poolShard struct {
	mu  sync.Mutex
	lru *Cache
	// Pad to a 64-byte cache line (8 mutex + 8 pointer + 48) so neighboring
	// shard mutexes don't false-share.
	_ [48]byte
}

// NewPool returns a sharded pool of the given total page capacity (minimum
// 1). The shard count is reduced below shards when the capacity is too small
// to give every shard at least one page.
func NewPool(capacity, shards int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	for shards > 1 && (shards&(shards-1)) != 0 {
		shards-- // round down to a power of two
	}
	for shards > capacity {
		shards >>= 1
	}
	p := &Pool{shards: make([]poolShard, shards)}
	log2 := 0
	for 1<<log2 < shards {
		log2++
	}
	p.shift = uint(64 - log2)
	base, rem := capacity/shards, capacity%shards
	for i := range p.shards {
		c := base
		if i < rem {
			c++
		}
		p.shards[i].lru = NewCache(c)
	}
	return p
}

// shardOf maps a page id onto its shard by Fibonacci hashing.
func (p *Pool) shardOf(id PageID) *poolShard {
	if len(p.shards) == 1 {
		return &p.shards[0]
	}
	return &p.shards[(uint64(id)*0x9E3779B97F4A7C15)>>p.shift]
}

// Touch accesses page id, returning true on a hit. The access is counted in
// the pool's atomic aggregates and, when qs is non-nil, in the caller's
// per-query counter (qs must be owned by the calling goroutine).
func (p *Pool) Touch(id PageID, qs *Stats) bool {
	hit, _, _ := p.TouchEvict(id, qs)
	return hit
}

// TouchEvict is Touch with eviction feedback (see Cache.TouchEvict). The
// per-query counter qs is charged with exactly one hit or one miss — the
// same outcome added to the pool's atomic aggregates — so summing the
// per-query counters of all users reproduces the aggregates exactly.
func (p *Pool) TouchEvict(id PageID, qs *Stats) (hit bool, evicted PageID, hasEvict bool) {
	s := p.shardOf(id)
	s.mu.Lock()
	hit, evicted, hasEvict = s.lru.TouchEvict(id)
	s.mu.Unlock()
	if qs != nil {
		if hit {
			qs.Hits++
		} else {
			qs.Misses++
		}
		if hasEvict {
			qs.Evictions++
		}
	}
	return hit, evicted, hasEvict
}

// Capacity returns the total page capacity across shards.
func (p *Pool) Capacity() int {
	total := 0
	for i := range p.shards {
		total += p.shards[i].lru.Capacity()
	}
	return total
}

// NumShards returns the shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// ShardStats returns shard i's hit/miss/eviction counters — the
// per-shard breakdown behind the Stats aggregate, for observability.
func (p *Pool) ShardStats(i int) Stats {
	s := &p.shards[i]
	s.mu.Lock()
	st := s.lru.Stats()
	s.mu.Unlock()
	return st
}

// ShardLen returns shard i's resident page count.
func (p *Pool) ShardLen(i int) int {
	s := &p.shards[i]
	s.mu.Lock()
	n := s.lru.Len()
	s.mu.Unlock()
	return n
}

// Len returns the number of resident pages across shards.
func (p *Pool) Len() int {
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		total += s.lru.Len()
		s.mu.Unlock()
	}
	return total
}

// Stats returns the aggregate hit/miss counters summed across shards. A
// nil *Pool — an in-RAM index has none — counts nothing.
func (p *Pool) Stats() Stats {
	var total Stats
	if p == nil {
		return total
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		total.Add(s.lru.Stats())
		s.mu.Unlock()
	}
	return total
}

// ResetStats zeroes the aggregate counters without evicting pages; on a
// nil *Pool it does nothing.
func (p *Pool) ResetStats() {
	if p == nil {
		return
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.lru.ResetStats()
		s.mu.Unlock()
	}
}
