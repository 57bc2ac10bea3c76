package diskio

import (
	"math/rand"
	"sync"
	"testing"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(2)
	if c.Touch(1) {
		t.Fatal("first touch should miss")
	}
	if !c.Touch(1) {
		t.Fatal("second touch should hit")
	}
	c.Touch(2) // miss; pool now {1,2}
	if !c.Touch(1) || !c.Touch(2) {
		t.Fatal("both pages should be resident")
	}
	c.Touch(3) // evicts LRU = 1
	if c.Touch(1) {
		t.Fatal("page 1 should have been evicted")
	}
	s := c.Stats()
	if s.Hits != 3 || s.Misses != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Fatalf("len/capacity = %d/%d", c.Len(), c.Capacity())
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(3)
	c.Touch(1)
	c.Touch(2)
	c.Touch(3)
	c.Touch(1) // 1 becomes MRU; LRU order now 2,3,1
	c.Touch(4) // evicts 2; residents {3,1,4}
	if !c.Touch(3) || !c.Touch(1) || !c.Touch(4) {
		t.Fatal("3, 1, 4 should all be resident")
	}
	if c.Touch(2) {
		t.Fatal("2 should have been evicted")
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	c := NewCache(0)
	if c.Capacity() != 1 {
		t.Fatalf("capacity = %d", c.Capacity())
	}
	c.Touch(1)
	c.Touch(2)
	if c.Touch(1) {
		t.Fatal("capacity-1 cache should evict on every new page")
	}
}

func TestCacheResetStats(t *testing.T) {
	c := NewCache(4)
	c.Touch(1)
	c.Touch(1)
	c.ResetStats()
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
	if !c.Touch(1) {
		t.Fatal("page should still be resident after ResetStats")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestStatsAccessesAndAdd(t *testing.T) {
	s := Stats{Hits: 10, Misses: 3}
	if s.Accesses() != 13 {
		t.Fatalf("Accesses = %d", s.Accesses())
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Hits != 20 || sum.Misses != 6 {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestLayoutPaging(t *testing.T) {
	// Three owners with 10, 0, 300 entries of 16 bytes on 4096-byte pages
	// (256 entries per page).
	l := NewLayout([]int{10, 0, 300}, 16, 4096)
	if l.TotalPages() != 2 {
		t.Fatalf("TotalPages = %d", l.TotalPages())
	}
	if lo, hi := l.EntryRange(2); lo != 10 || hi != 310 {
		t.Fatalf("EntryRange(2) = [%d,%d)", lo, hi)
	}
	first, last, ok := l.OwnerPages(0)
	if !ok || first != 0 || last != 0 {
		t.Fatalf("OwnerPages(0) = %d,%d,%v", first, last, ok)
	}
	// Owner 2 starts at entry 10 of the global array on page 0; its entry
	// 250 is global entry 260, on page 1.
	first, last, ok = l.OwnerPages(2)
	if !ok || first != 0 || last != 1 {
		t.Fatalf("OwnerPages(2) = %d,%d,%v", first, last, ok)
	}
	if _, _, ok := l.OwnerPages(1); ok {
		t.Fatal("owner 1 has no entries")
	}
}

func TestLayoutEmpty(t *testing.T) {
	l := NewLayout([]int{0, 0}, 16, 4096)
	if l.TotalPages() != 0 {
		t.Fatalf("TotalPages = %d", l.TotalPages())
	}
}

// TestByteLayoutMatchesEntryLayout checks that a layout of 16-byte entries
// pages exactly like a layout of their bytes, because no entry straddles a
// page when the page size is a multiple of 16.
func TestByteLayoutMatchesEntryLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, ps := range []int{16, 64, 4096} {
		for trial := 0; trial < 200; trial++ {
			counts := make([]int, 1+rng.Intn(40))
			byteLens := make([]int, len(counts))
			for v := range counts {
				switch rng.Intn(4) {
				case 0: // no blocks
				case 1: // a run longer than a page
					counts[v] = ps/16 + 1 + rng.Intn(3*ps/16)
				default:
					counts[v] = 1 + rng.Intn(20)
				}
				byteLens[v] = 16 * counts[v]
			}
			entries, bytes := NewLayout(counts, 16, ps), NewLayout(byteLens, 1, ps)
			if entries.TotalPages() != bytes.TotalPages() {
				t.Fatalf("page size %d, counts %v: TotalPages %d by entries, %d by bytes", ps, counts, entries.TotalPages(), bytes.TotalPages())
			}
			for v := range counts {
				ef, el, eok := entries.OwnerPages(v)
				bf, bl, bok := bytes.OwnerPages(v)
				if ef != bf || el != bl || eok != bok {
					t.Fatalf("page size %d, counts %v: OwnerPages(%d) = %d,%d,%v by entries, %d,%d,%v by bytes", ps, counts, v, ef, el, eok, bf, bl, bok)
				}
			}
		}
	}
}

func TestLayoutPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLayout([]int{1}, 100, 50)
}

func TestTrackerDisjointSpacesAndNil(t *testing.T) {
	// A store with 3 block pages: the store charges its block pages to the
	// pool itself, the tracker maps adjacency lists just above them.
	pool := NewPool(8, 1)
	tr := NewStoreTracker(3, []int{4, 4}, pool)
	pool.Touch(0, nil)
	tr.TouchAdjacency(0, nil)
	tr.TouchAdjacency(1, nil)
	s := tr.Stats()
	// Block page 0 and adjacency page (shared by both tiny lists) are
	// distinct pages: 2 misses, 1 hit.
	if s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// 3 block pages plus one adjacency page (8 edges at 48B fit one page).
	if tr.TotalPages() != 4 {
		t.Fatalf("TotalPages = %d", tr.TotalPages())
	}
	if tr.Pool() != pool {
		t.Fatal("tracker must expose the store's pool")
	}

	var nilTracker *Tracker
	nilTracker.TouchAdjacency(0, nil)
	nilTracker.ResetStats()
	nilTracker.SetEvictionHandler(func(PageID) {})
	if s := nilTracker.Stats(); s != (Stats{}) {
		t.Fatalf("nil tracker stats = %+v", s)
	}
	if nilTracker.TotalPages() != 0 || nilTracker.Pool() != nil {
		t.Fatal("nil tracker should report zeros")
	}
}

// TestTrackerEvictionFeedback: an adjacency touch that displaces a block
// page must tell the store, which owns the frame behind it.
func TestTrackerEvictionFeedback(t *testing.T) {
	pool := NewPool(1, 1)
	tr := NewStoreTracker(1, []int{4}, pool)
	var evicted []PageID
	tr.SetEvictionHandler(func(id PageID) { evicted = append(evicted, id) })
	pool.Touch(0, nil)
	tr.TouchAdjacency(0, nil)
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted = %v, want block page 0", evicted)
	}
}

func TestPoolShardingAndCapacity(t *testing.T) {
	p := NewPool(100, 8)
	if p.NumShards() != 8 {
		t.Fatalf("NumShards = %d", p.NumShards())
	}
	if p.Capacity() != 100 {
		t.Fatalf("Capacity = %d", p.Capacity())
	}
	// Shard count shrinks until every shard holds at least one page.
	small := NewPool(3, 64)
	if small.NumShards() > 3 {
		t.Fatalf("small pool shards = %d", small.NumShards())
	}
	if small.Capacity() != 3 {
		t.Fatalf("small pool capacity = %d", small.Capacity())
	}
	// Non-power-of-two shard requests round down.
	odd := NewPool(100, 7)
	if n := odd.NumShards(); n != 4 {
		t.Fatalf("odd shard request gave %d shards", n)
	}
}

func TestPoolHitMissAndPerQueryAttribution(t *testing.T) {
	p := NewPool(64, 4)
	var q1, q2 Stats
	p.Touch(1, &q1) // miss
	p.Touch(1, &q1) // hit
	p.Touch(1, &q2) // hit
	p.Touch(2, &q2) // miss
	p.Touch(3, nil) // miss, untracked
	if q1.Hits != 1 || q1.Misses != 1 {
		t.Fatalf("q1 = %+v", q1)
	}
	if q2.Hits != 1 || q2.Misses != 1 {
		t.Fatalf("q2 = %+v", q2)
	}
	agg := p.Stats()
	if agg.Hits != 2 || agg.Misses != 3 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	p.ResetStats()
	if s := p.Stats(); s.Accesses() != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
	if !p.Touch(1, nil) {
		t.Fatal("page 1 should remain resident across ResetStats")
	}
}

func TestPoolConcurrentTouches(t *testing.T) {
	p := NewPool(256, 16)
	const workers = 8
	const touches = 2000
	counters := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < touches; i++ {
				p.Touch(PageID((w*touches+i)%500), &counters[w])
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for w := range counters {
		if got := counters[w].Accesses(); got != touches {
			t.Fatalf("worker %d accesses = %d", w, got)
		}
		total += counters[w].Accesses()
	}
	if agg := p.Stats().Accesses(); agg != total {
		t.Fatalf("aggregate %d != per-query sum %d", agg, total)
	}
}

func TestTrackerConcurrentTouches(t *testing.T) {
	const blockPages = 782 // two 100000-block runs of 16B entries
	pool := NewPool(80, DefaultPoolShards)
	tr := NewStoreTracker(blockPages, []int{100, 100}, pool)
	var wg sync.WaitGroup
	counters := make([]Stats, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				pool.Touch(PageID((w%2)*391+i%4), &counters[w]) // the store's block touch
				tr.TouchAdjacency(w%2, &counters[w])
			}
		}(w)
	}
	wg.Wait()
	var sum int64
	for w := range counters {
		sum += counters[w].Accesses()
	}
	if got := tr.Stats().Accesses(); got != sum {
		t.Fatalf("aggregate %d != per-query sum %d", got, sum)
	}
}
