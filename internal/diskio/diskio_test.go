package diskio

import (
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

// TestNilPoolCountsNothing: an in-RAM index has no pool, and its nil *Pool
// reports zero counters and ignores a reset.
func TestNilPoolCountsNothing(t *testing.T) {
	var p *Pool
	p.ResetStats()
	if s := p.Stats(); s != (Stats{}) {
		t.Fatalf("nil pool stats = %+v", s)
	}
}
