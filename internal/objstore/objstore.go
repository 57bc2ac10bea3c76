// Package objstore is the live-world object store: a versioned, concurrent
// CRUD surface (Insert/Remove/Move/Expire) over the query-object domain,
// publishing an immutable knn.Objects snapshot per version.
//
// The design leans on the paper's decoupling property: SILC's shortest-path
// quadtrees encode path *identity*, so object churn never invalidates the
// distance index — mutating the world is purely an object-set problem. The
// store therefore keeps one authoritative table of live objects and, on
// every mutation, publishes a fresh copy-on-write snapshot (a PMR quadtree
// plus the id/vertex tables) behind an atomic pointer:
//
//   - Readers pin the current snapshot with one atomic load — O(1), no
//     locks, never blocked by writers — and every query they run against it
//     is exact for that version.
//   - Writers serialize under a mutex, bump the monotonically increasing
//     version, rebuild the snapshot from the live table (O(n log n) in the
//     object count — the network index is untouched), and publish it.
//   - Each publish closes the store's change channel, waking continuous
//     queries (Engine.Watch) without polling.
//
// A TTL sweeper goroutine (Options.TTL > 0) expires objects not touched
// within the TTL — the ExpireOldNodes scenario of moving-fleet workloads —
// and shuts down gracefully on Close.
package objstore

import (
	"sort"
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
	// Objects is the immutable query view (stable ids; empty set valid).
	Objects *knn.Objects
	// IDs and Vertices are the members in ascending stable-id order.
	IDs      []int32
	Vertices []graph.VertexID
}

// entry is one live object in the authoritative table.
type entry struct {
	vertex  graph.VertexID
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
	g   *graph.Network
	now func() time.Time

	// mu serializes mutators (writers). Readers never take it: they pin
	// snapshots through the atomic pointer below.
	mu      sync.Mutex
	objs    map[int32]entry
	ids     []int32 // live ids, ascending (nextID is monotone, appends keep order)
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
		g:       g,
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
		"Copy-on-write snapshot rebuilds (one per published version).")
	s.buildSecs = s.reg.CounterScaled("silc_objstore_snapshot_build_seconds_total", "",
		"Wall-clock seconds spent rebuilding snapshots.", 1e-9)
	s.reg.GaugeFunc("silc_objstore_objects", "",
		"Objects currently live in the store.",
		func() float64 { return float64(s.Len()) })
	s.reg.GaugeFunc("silc_objstore_version", "",
		"Current store version (monotone; one bump per mutation).",
		func() float64 { return float64(s.Version()) })

	s.snap.Store(s.buildSnapshotLocked()) // version 0: the empty world
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

// Len returns the number of live objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objs)
}

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
	id := s.nextID
	s.nextID++
	s.objs[id] = entry{vertex: v, touched: s.now()}
	s.ids = append(s.ids, id) // nextID is monotone: append keeps ids sorted
	s.inserts.Inc()
	return id, s.publishLocked()
}

// Remove deletes the object. It returns the version that no longer contains
// it, or ok=false (version unchanged) for an unknown id.
func (s *Store) Remove(id int32) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[id]; !ok {
		return s.version, false
	}
	delete(s.objs, id)
	s.dropIDLocked(id)
	s.removes.Inc()
	return s.publishLocked(), true
}

// Move relocates the object to v (refreshing its TTL clock) and returns the
// first version reflecting the move, or ok=false for an unknown id.
func (s *Store) Move(id int32, v graph.VertexID) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[id]; !ok {
		return s.version, false
	}
	s.objs[id] = entry{vertex: v, touched: s.now()}
	s.moves.Inc()
	return s.publishLocked(), true
}

// ExpireOlderThan removes every object last touched strictly before cutoff.
// It returns the number removed and the resulting version (one version bump
// covers the whole sweep; zero removals publish nothing).
func (s *Store) ExpireOlderThan(cutoff time.Time) (int, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for i := 0; i < len(s.ids); {
		id := s.ids[i]
		if s.objs[id].touched.Before(cutoff) {
			delete(s.objs, id)
			s.ids = append(s.ids[:i], s.ids[i+1:]...)
			removed++
			continue
		}
		i++
	}
	if removed == 0 {
		return 0, s.version
	}
	s.expired.Add(int64(removed))
	return removed, s.publishLocked()
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

// dropIDLocked removes id from the sorted id list.
func (s *Store) dropIDLocked(id int32) {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	if i < len(s.ids) && s.ids[i] == id {
		s.ids = append(s.ids[:i], s.ids[i+1:]...)
	}
}

// publishLocked bumps the version, rebuilds the snapshot from the live
// table, publishes it, and wakes the change watchers. Callers hold mu.
func (s *Store) publishLocked() uint64 {
	s.version++
	s.snap.Store(s.buildSnapshotLocked())
	close(s.changed)
	s.changed = make(chan struct{})
	return s.version
}

// buildSnapshotLocked materializes the immutable view of the current table:
// fresh id/vertex slices (ascending id) and a fresh PMR quadtree. Nothing
// is shared with previous snapshots, so published versions are frozen.
func (s *Store) buildSnapshotLocked() *Snapshot {
	start := time.Now()
	ids := make([]int32, len(s.ids))
	copy(ids, s.ids)
	verts := make([]graph.VertexID, len(ids))
	for i, id := range ids {
		verts[i] = s.objs[id].vertex
	}
	snap := &Snapshot{
		Version:  s.version,
		Objects:  knn.NewObjectsWithIDs(s.g, ids, verts),
		IDs:      ids,
		Vertices: verts,
	}
	s.snapshotBuilds.Inc()
	s.buildSecs.Add(time.Since(start).Nanoseconds())
	return snap
}
