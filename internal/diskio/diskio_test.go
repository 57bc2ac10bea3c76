package diskio

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fillID is a fill that writes the page id into an 8-byte frame, reusing
// the frame it is given when it has one.
func fillID(id PageID) func([]byte) ([]byte, error) {
	return func(frame []byte) ([]byte, error) {
		if len(frame) != 8 {
			frame = make([]byte, 8)
		}
		binary.LittleEndian.PutUint64(frame, uint64(id))
		return frame, nil
	}
}

// read reads page id through p with fillID, checks that the bytes it got
// back are the page's, and reports whether it hit.
func read(p *Pool, id PageID, qs *Stats) (hit bool, err error) {
	var st Stats
	var dst [8]byte
	if err := p.Read(id, &st, dst[:], 0, fillID(id)); err != nil {
		return false, err
	}
	if got := PageID(binary.LittleEndian.Uint64(dst[:])); got != id {
		return false, fmt.Errorf("read of page %d returned page %d's bytes", id, got)
	}
	if qs != nil {
		qs.Add(st)
	}
	return st.Hits == 1, nil
}

// mustRead is read in a test's own goroutine.
func mustRead(t *testing.T, p *Pool, id PageID, qs *Stats) bool {
	t.Helper()
	hit, err := read(p, id, qs)
	if err != nil {
		t.Fatal(err)
	}
	return hit
}

func TestCacheHitMiss(t *testing.T) {
	p := NewPool(2, 1)
	if mustRead(t, p, 1, nil) {
		t.Fatal("first touch should miss")
	}
	if !mustRead(t, p, 1, nil) {
		t.Fatal("second touch should hit")
	}
	mustRead(t, p, 2, nil) // miss; pool now {1,2}
	if !mustRead(t, p, 1, nil) || !mustRead(t, p, 2, nil) {
		t.Fatal("both pages should be resident")
	}
	mustRead(t, p, 3, nil) // evicts LRU = 1
	if mustRead(t, p, 1, nil) {
		t.Fatal("page 1 should have been evicted")
	}
	s := p.Stats()
	if s.Hits != 3 || s.Misses != 4 || s.Evictions != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if p.Len() != 2 || p.Capacity() != 2 {
		t.Fatalf("len/capacity = %d/%d", p.Len(), p.Capacity())
	}
}

func TestCacheLRUOrder(t *testing.T) {
	p := NewPool(3, 1)
	mustRead(t, p, 1, nil)
	mustRead(t, p, 2, nil)
	mustRead(t, p, 3, nil)
	mustRead(t, p, 1, nil) // 1 becomes MRU; LRU order now 2,3,1
	mustRead(t, p, 4, nil) // evicts 2; residents {3,1,4}
	if !mustRead(t, p, 3, nil) || !mustRead(t, p, 1, nil) || !mustRead(t, p, 4, nil) {
		t.Fatal("3, 1, 4 should all be resident")
	}
	if mustRead(t, p, 2, nil) {
		t.Fatal("2 should have been evicted")
	}
}

// TestPoolShardingAndCapacity: the capacity is the one given, at least
// one page; the shard argument changes nothing, the pool is one LRU.
func TestPoolShardingAndCapacity(t *testing.T) {
	for _, c := range []struct{ capacity, shards, want int }{
		{100, 8, 100}, {3, 64, 3}, {100, 7, 100}, {0, 1, 1}, {-5, 0, 1},
	} {
		if got := NewPool(c.capacity, c.shards).Capacity(); got != c.want {
			t.Errorf("NewPool(%d, %d).Capacity() = %d, want %d", c.capacity, c.shards, got, c.want)
		}
	}
	// 64 pages over a nominal 64 shards: one LRU keeps all of them.
	p := NewPool(64, 64)
	for id := PageID(0); id < 64; id++ {
		mustRead(t, p, id, nil)
	}
	for id := PageID(0); id < 64; id++ {
		if !mustRead(t, p, id, nil) {
			t.Fatalf("page %d of 64 missed in a 64-page pool", id)
		}
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	p := NewPool(0, 1)
	if p.Capacity() != 1 {
		t.Fatalf("capacity = %d", p.Capacity())
	}
	mustRead(t, p, 1, nil)
	mustRead(t, p, 2, nil)
	if mustRead(t, p, 1, nil) {
		t.Fatal("capacity-1 pool should evict on every new page")
	}
}

func TestCacheResetStats(t *testing.T) {
	p := NewPool(4, 1)
	mustRead(t, p, 1, nil)
	mustRead(t, p, 1, nil)
	p.ResetStats()
	if s := p.Stats(); s != (Stats{}) {
		t.Fatalf("stats after reset = %+v", s)
	}
	if !mustRead(t, p, 1, nil) {
		t.Fatal("page should still be resident after ResetStats")
	}
	if p.Len() != 1 {
		t.Fatalf("len = %d", p.Len())
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

func TestPoolHitMissAndPerQueryAttribution(t *testing.T) {
	p := NewPool(64, 1)
	var q1, q2 Stats
	mustRead(t, p, 1, &q1) // miss
	mustRead(t, p, 1, &q1) // hit
	mustRead(t, p, 1, &q2) // hit
	mustRead(t, p, 2, &q2) // miss
	mustRead(t, p, 3, nil) // miss, untracked
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
	if !mustRead(t, p, 1, nil) {
		t.Fatal("page 1 should remain resident across ResetStats")
	}
}

func TestPoolConcurrentTouches(t *testing.T) {
	p := NewPool(256, 1)
	const workers = 8
	const touches = 2000
	counters := make([]Stats, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < touches; i++ {
				if _, err := read(p, PageID((w*touches+i)%500), &counters[w]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
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

// refLRU is the reference the pool must match: a list-based LRU.
type refLRU struct {
	capacity int
	order    *list.List // front: most recently used
	at       map[PageID]*list.Element
}

// touch reports whether id was resident, and the page it evicted, if any.
func (r *refLRU) touch(id PageID) (hit bool, evicted PageID, hasEvict bool) {
	if e, ok := r.at[id]; ok {
		r.order.MoveToFront(e)
		return true, 0, false
	}
	if r.order.Len() == r.capacity {
		back := r.order.Back()
		evicted, hasEvict = back.Value.(PageID), true
		r.order.Remove(back)
		delete(r.at, evicted)
	}
	r.at[id] = r.order.PushFront(id)
	return false, evicted, hasEvict
}

// recency returns the pool's resident pages, most recently used first.
func (p *Pool) recency() []PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ids []PageID
	for i := p.head; i >= 0; i = p.entries[i].next {
		ids = append(ids, p.entries[i].id)
	}
	return ids
}

// heldFrames returns the frames the pool holds: resident plus free.
func (p *Pool) heldFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries) + len(p.free)
}

// TestPoolIsExactLRU replays a seeded page trace of mixed reuse distances
// against the reference LRU at several capacities: every touch must hit or
// miss as the reference does, evict the page it evicts, and leave the same
// recency order, and the pool never holds more than capacity+1 frames.
func TestPoolIsExactLRU(t *testing.T) {
	for _, capacity := range []int{1, 2, 16, 17, 70, 256} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			p := NewPool(capacity, 1)
			ref := &refLRU{capacity: capacity, order: list.New(), at: map[PageID]*list.Element{}}
			rng := rand.New(rand.NewSource(int64(capacity)))
			var history []PageID
			hits, evictions := 0, 0
			for i := 0; i < 20000; i++ {
				// Reuse distances: short (within the pool), around the
				// capacity, long (past it), or a page never seen.
				var id PageID
				switch r := rng.Intn(10); {
				case len(history) == 0 || r == 0:
					id = PageID(len(history) + 1_000_000)
				case r < 5:
					id = history[len(history)-1-rng.Intn(min(len(history), capacity))]
				case r < 8:
					id = history[len(history)-1-rng.Intn(min(len(history), 2*capacity+2))]
				default:
					id = history[rng.Intn(len(history))]
				}
				history = append(history, id)

				want, victim, evicts := ref.touch(id)
				var st Stats
				hit := mustRead(t, p, id, &st)
				if hit != want {
					t.Fatalf("touch %d of page %d: hit %v, reference LRU %v", i, id, hit, want)
				}
				if got := st.Evictions == 1; got != evicts {
					t.Fatalf("touch %d of page %d: evicted %v, reference LRU %v", i, id, got, evicts)
				}
				order := p.recency()
				if evicts {
					evictions++
					for _, r := range order {
						if r == victim {
							t.Fatalf("touch %d of page %d: reference evicted page %d, the pool kept it", i, id, victim)
						}
					}
				}
				j := 0
				for e := ref.order.Front(); e != nil; e = e.Next() {
					if j >= len(order) || order[j] != e.Value.(PageID) {
						t.Fatalf("touch %d of page %d: recency %v differs from the reference at %d", i, id, order, j)
					}
					j++
				}
				if j != len(order) {
					t.Fatalf("touch %d: pool holds %d pages, reference %d", i, len(order), j)
				}
				if held := p.heldFrames(); held > capacity+1 {
					t.Fatalf("touch %d: %d frames held, capacity %d + 1", i, held, capacity)
				}
				if hit {
					hits++
				}
			}
			if hits == 0 || evictions == 0 {
				t.Fatalf("%d hits, %d evictions: the trace must exercise both", hits, evictions)
			}
		})
	}
}

// TestPoolConcurrentReadsAttributeExactly runs 8 goroutines over a 2-page
// pool, nearly every read evicting and each followed by a decode charge as
// a store's lookup makes: every read returns its own page's bytes, every
// query's Reads equals its Misses, and the per-query sums equal the pool's
// aggregates, counter for counter.
func TestPoolConcurrentReadsAttributeExactly(t *testing.T) {
	p := NewPool(2, 1)
	const workers, reads = 8, 3000
	perQuery := make([]Stats, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qs := &perQuery[w]
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < reads; i++ {
				id := PageID(rng.Intn(5))
				fill := fillID(id)
				var dst [8]byte
				if err := p.Read(id, qs, dst[:], 0, fill); err != nil {
					errs <- err
					return
				}
				p.Decoded(qs, 1+i%3)
				if got := PageID(binary.LittleEndian.Uint64(dst[:])); got != id {
					errs <- fmt.Errorf("read of page %d returned page %d's bytes", id, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var sum Stats
	for w, qs := range perQuery {
		if qs.Reads != qs.Misses {
			t.Fatalf("query %d: %d reads for %d misses", w, qs.Reads, qs.Misses)
		}
		if qs.Accesses() != reads {
			t.Fatalf("query %d: %d accesses, made %d", w, qs.Accesses(), reads)
		}
		sum.Add(qs)
	}
	agg := p.Stats()
	if sum != agg {
		t.Fatalf("per-query sum %+v != pool aggregates %+v", sum, agg)
	}
	if agg.Evictions == 0 || agg.Hits == 0 {
		t.Fatalf("aggregates %+v: the run must both hit and evict", agg)
	}
	if held := p.heldFrames(); held > p.Capacity()+1 {
		t.Fatalf("%d frames held, capacity %d + 1", held, p.Capacity())
	}
}

// TestFailedFillLeavesPageAbsent: a fill's error is returned, the fill
// counts as one miss and one read in the caller's counter and in the
// pool's aggregates alike, the page does not join the pool, and its next
// read misses and fills again.
func TestFailedFillLeavesPageAbsent(t *testing.T) {
	p := NewPool(2, 1)
	mustRead(t, p, 1, nil)
	base := p.Stats()
	bad := errors.New("bad page")
	var st Stats
	err := p.Read(2, &st, nil, 0, func(frame []byte) ([]byte, error) { return frame, bad })
	if !errors.Is(err, bad) || st != (Stats{Misses: 1, Reads: 1}) {
		t.Fatalf("failed fill: err %v, stats %+v; want the fill's error, one miss and one read", err, st)
	}
	if agg := p.Stats(); agg.Misses-base.Misses != 1 || agg.Reads-base.Reads != 1 || agg.Hits != base.Hits || agg.Evictions != base.Evictions {
		t.Fatalf("failed fill moved the aggregates %+v -> %+v; want one miss and one read", base, agg)
	}
	if p.Len() != 1 || !mustRead(t, p, 1, nil) {
		t.Fatalf("failed fill changed the resident set: %v", p.recency())
	}
	if mustRead(t, p, 2, nil) {
		t.Fatal("page whose fill failed hit on its next read")
	}
}

// TestNilPoolCountsNothing: an in-RAM index has no pool, and its nil *Pool
// reports zero counters and ignores a reset.
func TestNilPoolCountsNothing(t *testing.T) {
	var p *Pool
	p.ResetStats()
	if s := p.Stats(); s != (Stats{}) || p.ReadTime() != 0 {
		t.Fatalf("nil pool stats = %+v, read time %v", s, p.ReadTime())
	}
}

// TestReadClockTimesFills: the read clock adds up the time of every fill,
// a hit adds nothing, and ResetStats zeroes it with the counters.
func TestReadClockTimesFills(t *testing.T) {
	p := NewPool(4, 1)
	const nap = 2 * time.Millisecond
	slow := func(frame []byte) ([]byte, error) { time.Sleep(nap); return frame, nil }
	for range 2 {
		if err := p.Read(7, nil, nil, 0, slow); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.ReadTime(); got < nap {
		t.Fatalf("one fill of %v left the read clock at %v", nap, got)
	}
	p.Decoded(nil, 5)
	if s := p.Stats(); s != (Stats{Hits: 1, Misses: 1, Reads: 1, BlocksDecoded: 5}) {
		t.Fatalf("stats %+v; want one hit, one miss, one read and 5 blocks decoded", s)
	}
	p.ResetStats()
	if s := p.Stats(); s != (Stats{}) || p.ReadTime() != 0 {
		t.Fatalf("after ResetStats: %+v, read time %v", s, p.ReadTime())
	}
}
