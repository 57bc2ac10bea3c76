// Package objstore is the live-world object store: a versioned, concurrent
// CRUD surface (Insert/Remove/Move/Expire) over the query-object domain,
// publishing an immutable knn.Objects snapshot per version.
//
// The design leans on the paper's decoupling property: SILC's shortest-path
// quadtrees encode path *identity*, so object churn never invalidates the
// distance index — mutating the world is purely an object-set problem. And a
// mutation costs its change, not the world: every version is the SUCCESSOR of
// the one before it, derived by copying the root-to-leaf path of the PMR
// quadtree the mutation touches and one fixed-size chunk of the slot table,
// and sharing everything else (knn.Objects.WithInserted/WithMoved/
// WithRemoved over pmr.Tree.With/Without). Version 0 is the empty set at the
// head of that chain; there is no other way to make a snapshot.
//
//   - Readers pin the current snapshot with one atomic load — O(1), no
//     locks, never blocked by writers — and every query they run against it
//     is exact for that version. A published snapshot is never written
//     again, so a reader may hold one for as long as it likes.
//   - Writers serialize under a mutex, derive the successor of the current
//     snapshot (O(log n) tree nodes plus a chunk, whatever the population —
//     the network index is untouched), bump the monotonically increasing
//     version and publish: one version per mutation.
//   - Each publish closes the store's change channel, waking continuous
//     queries (Engine.Watch) without polling.
//
// Two id spaces meet here. An object's public id is the store's: monotone
// from 0, never reused. Inside a snapshot the object lives in a SLOT — the
// index search state is kept under — which stays its own from insert to
// removal and then goes on the store's free list for a later insert, so the
// slots in use stay dense however long the store churns. The store's table
// maps id to slot; the snapshot maps slot back to id when it reports.
//
// A TTL sweeper goroutine (Options.TTL > 0) expires objects not touched
// within the TTL — the ExpireOldNodes scenario of moving-fleet workloads —
// and shuts down gracefully on Close.
package objstore

import (
	"sync"
	"sync/atomic"
	"time"

	"silc/internal/graph"
	"silc/internal/knn"
	"silc/internal/obs"
)

// Snapshot is one immutable version of the object set. All fields are
// read-only after publication; any number of queries may share one snapshot
// while mutators publish successors.
type Snapshot struct {
	// Version is the store version this snapshot reflects. Versions are
	// monotonically increasing; version 0 is the empty store at birth.
	Version uint64
	// Objects is the immutable query view (stable ids; empty set valid);
	// Objects.Members lists it by ascending id.
	Objects *knn.Objects
}

// entry is one live object in the authoritative table.
type entry struct {
	slot    int32     // the object's slot in every snapshot that holds it
	touched time.Time // last Insert/Move, drives TTL expiry
}

// Options configures a Store.
type Options struct {
	// TTL expires objects not inserted or moved within this duration
	// (0 = objects never expire and no sweeper runs).
	TTL time.Duration
	// SweepInterval is the TTL sweeper's period (default TTL/4, floored at
	// 10ms). Ignored when TTL is 0.
	SweepInterval time.Duration
	// Now is the clock (tests inject a fake one; nil = time.Now).
	Now func() time.Time
}

// Store is the versioned concurrent object store. The zero value is not
// usable; construct with New and release the sweeper with Close.
type Store struct {
	now func() time.Time

	// mu serializes mutators (writers). Readers never take it: they pin
	// snapshots through the atomic pointer below.
	mu   sync.Mutex
	objs map[int32]entry
	// free holds every slot below the current snapshot's bound that holds no
	// object. It may also hold stale entries — a slot the bound has since
	// fallen below, or one handed out again after that — which takeSlotLocked
	// discards.
	free    []int32
	nextID  int32
	version uint64        // guarded by mu; published value mirrored in snap
	changed chan struct{} // closed and replaced on every publish

	snap atomic.Pointer[Snapshot]

	ttl        time.Duration
	sweepEvery time.Duration
	stopSweep  chan struct{}
	sweepDone  chan struct{}
	closeOnce  sync.Once

	// Metrics: silc_objstore_* families, registered on the store's own
	// registry so servers can append them to any exposition.
	reg            *obs.Registry
	inserts        *obs.Counter
	removes        *obs.Counter
	moves          *obs.Counter
	expired        *obs.Counter
	snapshotBuilds *obs.Counter
	buildSecs      *obs.Counter
}

// New returns an empty store over g's vertex domain and starts the TTL
// sweeper when opt.TTL > 0. Callers must Close the store to stop the
// sweeper.
func New(g *graph.Network, opt Options) *Store {
	s := &Store{
		now:     opt.Now,
		objs:    make(map[int32]entry),
		changed: make(chan struct{}),
		ttl:     opt.TTL,
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.reg = obs.NewRegistry()
	s.inserts = s.reg.Counter("silc_objstore_inserts_total", "",
		"Objects inserted into the live store.")
	s.removes = s.reg.Counter("silc_objstore_removes_total", "",
		"Objects removed from the live store (explicit Remove only).")
	s.moves = s.reg.Counter("silc_objstore_moves_total", "",
		"Objects moved to a new vertex.")
	s.expired = s.reg.Counter("silc_objstore_expired_total", "",
		"Objects expired by TTL or explicit Expire.")
	s.snapshotBuilds = s.reg.Counter("silc_objstore_snapshot_builds_total", "",
		"Successor snapshots derived (one per published version).")
	s.buildSecs = s.reg.CounterScaled("silc_objstore_snapshot_build_seconds_total", "",
		"Wall-clock seconds spent deriving successor snapshots.", 1e-9)
	s.reg.GaugeFunc("silc_objstore_objects", "",
		"Objects currently live in the store.",
		func() float64 { return float64(s.Len()) })
	s.reg.GaugeFunc("silc_objstore_version", "",
		"Current store version (monotone; one bump per mutation).",
		func() float64 { return float64(s.Version()) })

	s.snap.Store(&Snapshot{Objects: knn.EmptyObjects(g)}) // version 0: the empty world
	if opt.TTL > 0 {
		s.sweepEvery = opt.SweepInterval
		if s.sweepEvery <= 0 {
			s.sweepEvery = opt.TTL / 4
		}
		if s.sweepEvery < 10*time.Millisecond {
			s.sweepEvery = 10 * time.Millisecond
		}
		s.stopSweep = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweep()
	}
	return s
}

// Registry returns the store's metric registry (silc_objstore_* families).
func (s *Store) Registry() *obs.Registry { return s.reg }

// Len returns the number of live objects: one atomic load, like Version, so
// a metrics scrape never queues behind a writer.
func (s *Store) Len() int { return s.snap.Load().Objects.Len() }

// Version returns the current store version.
func (s *Store) Version() uint64 { return s.snap.Load().Version }

// Snapshot pins the current immutable snapshot: one atomic load, O(1),
// never blocked by writers. The snapshot stays valid (and exact for its
// version) however long the caller holds it.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Changed returns a channel closed at the next publish after this call.
// Pin a snapshot AFTER grabbing the channel: if a publish lands in between,
// the channel is already closed and the caller simply re-pins — no lost
// wakeups.
func (s *Store) Changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.changed
}

// Insert places a new object on v and returns its stable id and the store
// version that first contains it.
func (s *Store) Insert(v graph.VertexID) (int32, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	cur := s.snap.Load().Objects
	id, slot := s.nextID, s.takeSlotLocked(cur)
	s.nextID++
	s.objs[id] = entry{slot: slot, touched: s.now()}
	s.inserts.Inc()
	return id, s.publishLocked(start, cur.WithInserted(slot, id, v))
}

// takeSlotLocked returns the slot for a new object in the successor of cur:
// a free one below cur's bound, else the bound itself.
func (s *Store) takeSlotLocked(cur *knn.Objects) int32 {
	for n := len(s.free); n > 0; n = len(s.free) {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		if int(slot) < cur.SlotBound() && !cur.Live(slot) {
			return slot
		}
	}
	return int32(cur.SlotBound())
}

// Remove deletes the object. It returns the version that no longer contains
// it, or ok=false (version unchanged) for an unknown id.
func (s *Store) Remove(id int32) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objs[id]
	if !ok {
		return s.version, false
	}
	start := time.Now()
	delete(s.objs, id)
	s.free = append(s.free, e.slot)
	s.removes.Inc()
	return s.publishLocked(start, s.snap.Load().Objects.WithRemoved(e.slot)), true
}

// Move relocates the object to v (refreshing its TTL clock) and returns the
// first version reflecting the move, or ok=false for an unknown id.
func (s *Store) Move(id int32, v graph.VertexID) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objs[id]
	if !ok {
		return s.version, false
	}
	start := time.Now()
	e.touched = s.now()
	s.objs[id] = e
	s.moves.Inc()
	return s.publishLocked(start, s.snap.Load().Objects.WithMoved(e.slot, v)), true
}

// ExpireOlderThan removes every object last touched strictly before cutoff.
// It returns the number removed and the resulting version (one version bump
// covers the whole sweep; zero removals publish nothing).
func (s *Store) ExpireOlderThan(cutoff time.Time) (int, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	cur := s.snap.Load().Objects
	next, removed := cur, 0
	// By slot, not by ranging over the map: the free list's order — hence
	// which slot a later insert gets — must not depend on map iteration.
	// Top slot first, so the bound falls as the sweep goes.
	for slot := int32(cur.SlotBound()) - 1; slot >= 0; slot-- {
		if !cur.Live(slot) {
			continue
		}
		if id := cur.Label(slot); s.objs[id].touched.Before(cutoff) {
			delete(s.objs, id)
			s.free = append(s.free, slot)
			next = next.WithRemoved(slot)
			removed++
		}
	}
	if removed == 0 {
		return 0, s.version
	}
	s.expired.Add(int64(removed))
	return removed, s.publishLocked(start, next)
}

// Close stops the TTL sweeper and waits for it to exit. The store remains
// readable and mutable after Close; only background expiry stops. Safe to
// call multiple times.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		if s.stopSweep != nil {
			close(s.stopSweep)
			<-s.sweepDone
		}
	})
}

// sweep is the TTL sweeper goroutine.
func (s *Store) sweep() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.sweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-t.C:
			s.ExpireOlderThan(s.now().Add(-s.ttl))
		}
	}
}

// publishLocked bumps the version, publishes next — the successor of the
// current snapshot, whose derivation began at start — and wakes the change
// watchers. Callers hold mu.
func (s *Store) publishLocked(start time.Time, next *knn.Objects) uint64 {
	s.version++
	s.snap.Store(&Snapshot{Version: s.version, Objects: next})
	s.snapshotBuilds.Inc()
	s.buildSecs.Add(time.Since(start).Nanoseconds())
	close(s.changed)
	s.changed = make(chan struct{})
	return s.version
}
