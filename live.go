package silc

import (
	"context"
	"fmt"
	"iter"
	"sort"
	"sync/atomic"
	"time"

	"silc/internal/objstore"
	"silc/internal/obs"
)

// LiveObjectsOptions configures a live object store.
type LiveObjectsOptions struct {
	// TTL expires objects not inserted or moved within this duration
	// (0 = objects never expire and no sweeper goroutine runs).
	TTL time.Duration
	// SweepInterval is the TTL sweeper's period (default TTL/4). Ignored
	// when TTL is 0.
	SweepInterval time.Duration
}

// LiveObjects is the mutable query-object world: a versioned, concurrent
// object store whose mutations — Insert, Remove, Move, Expire — publish
// immutable copy-on-write snapshots. It is the live-world counterpart of the
// static ObjectSet and slots into every Engine query entry point through
// View():
//
//	live, _ := silc.NewLiveObjects(net, silc.LiveObjectsOptions{})
//	defer live.Close()
//	id, _, _ := live.Insert(someVertex)
//	res, _ := eng.Query(ctx, live.View(), q, 5)   // exact for one version
//	live.Move(id, otherVertex)                    // never blocks readers
//
// View pins the current snapshot with one atomic load: the returned
// ObjectSet is immutable, so a query running against it is exact for that
// version however many mutations land mid-query — the version is stamped
// into Result.Stats.SnapshotVersion. Mutators never block readers, and the
// precomputed SILC index is untouched by any mutation (the paper's
// decoupling property: shortest-path quadtrees encode path identity, so the
// distance index survives arbitrary object churn).
//
// All methods are safe for concurrent use. Object ids are stable across
// versions (unlike the dense ids of a static ObjectSet).
type LiveObjects struct {
	net *Network
	st  *objstore.Store
	// view caches the public wrapper of the current snapshot so steady-state
	// View calls are a pure atomic load (zero allocations — the query hot
	// path's budget covers live sets too).
	view atomic.Pointer[ObjectSet]
}

// NewLiveObjects returns an empty live object store over net's vertices.
// Close it to stop the TTL sweeper (a no-op without a TTL, but always safe).
func NewLiveObjects(net *Network, opt LiveObjectsOptions) (*LiveObjects, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	st := objstore.New(net.g, objstore.Options{TTL: opt.TTL, SweepInterval: opt.SweepInterval})
	return &LiveObjects{net: net, st: st}, nil
}

// Insert places a new object on v and returns its stable id and the first
// store version containing it.
func (l *LiveObjects) Insert(v VertexID) (int32, uint64, error) {
	if err := checkVertex(l.net, "v", v); err != nil {
		return 0, 0, err
	}
	id, ver := l.st.Insert(v)
	return id, ver, nil
}

// InsertPoint snaps p to its nearest network vertex and inserts an object
// there.
func (l *LiveObjects) InsertPoint(p Point) (int32, uint64, error) {
	return l.Insert(l.net.g.NearestVertex(p))
}

// Move relocates the object to v, refreshing its TTL clock. It returns the
// first version reflecting the move, or ErrUnknownObject.
func (l *LiveObjects) Move(id int32, v VertexID) (uint64, error) {
	if err := checkVertex(l.net, "v", v); err != nil {
		return 0, err
	}
	ver, ok := l.st.Move(id, v)
	if !ok {
		return ver, fmt.Errorf("%w: id=%d", ErrUnknownObject, id)
	}
	return ver, nil
}

// Remove deletes the object. It returns the first version without it, or
// ErrUnknownObject.
func (l *LiveObjects) Remove(id int32) (uint64, error) {
	ver, ok := l.st.Remove(id)
	if !ok {
		return ver, fmt.Errorf("%w: id=%d", ErrUnknownObject, id)
	}
	return ver, nil
}

// Expire removes every object not inserted or moved within olderThan,
// returning the number removed and the resulting version (unchanged when
// nothing expired). The TTL sweeper calls this automatically when the store
// was built with a TTL.
func (l *LiveObjects) Expire(olderThan time.Duration) (int, uint64) {
	return l.st.ExpireOlderThan(time.Now().Add(-olderThan))
}

// Len returns the number of live objects.
func (l *LiveObjects) Len() int { return l.st.Len() }

// Version returns the current store version (monotone; one bump per
// mutation).
func (l *LiveObjects) Version() uint64 { return l.st.Version() }

// LiveObject is one object of a List snapshot: its stable id and current
// vertex.
type LiveObject struct {
	ID     int32
	Vertex VertexID
}

// List returns every live object of one consistent snapshot, ascending by
// id, along with the snapshot's version.
func (l *LiveObjects) List() ([]LiveObject, uint64) {
	snap := l.st.Snapshot()
	members := snap.Objects.Members()
	out := make([]LiveObject, len(members))
	for i, o := range members {
		out[i] = LiveObject{ID: o.ID, Vertex: o.Vertex}
	}
	return out, snap.Version
}

// Vertex returns the object's current vertex, ok=false for an unknown id.
// The first call against a version builds that snapshot's id table (O(n));
// a caller that only wants where its own write put an object already knows.
func (l *LiveObjects) Vertex(id int32) (VertexID, bool) {
	v := l.st.Snapshot().Objects.ByID(id).Vertex
	return v, v != NoVertex
}

// View pins the current snapshot as an immutable ObjectSet: one atomic load,
// O(1), never blocked by concurrent mutators, allocation-free while the
// version is unchanged. Queries over the returned set are exact for its
// version and stamp it into Result.Stats.SnapshotVersion. A view of an
// empty world is valid to hold but rejected by queries with
// ErrEmptyObjects, like any empty object set.
func (l *LiveObjects) View() *ObjectSet {
	snap := l.st.Snapshot()
	if cached := l.view.Load(); cached != nil && cached.version == snap.Version {
		return cached
	}
	v := &ObjectSet{net: l.net, objs: snap.Objects, version: snap.Version}
	// Benign race: a concurrent caller may publish a wrapper for a different
	// snapshot; whoever loses just rebuilds on the next call. Correctness
	// never depends on the cache — View re-checks the version every time.
	l.view.Store(v)
	return v
}

// Changed returns a channel closed at the next mutation after this call —
// grab the channel, then View: if a mutation lands in between, the channel
// is already closed and a fresh View sees it. Watch uses this to re-evaluate
// without polling.
func (l *LiveObjects) Changed() <-chan struct{} { return l.st.Changed() }

// Registry returns the store's metric registry (the silc_objstore_*
// families); serve it next to the engine's metrics.
func (l *LiveObjects) Registry() *obs.Registry { return l.st.Registry() }

// Close stops the TTL sweeper and waits for it to exit. The store stays
// usable afterwards; only background expiry stops. Safe to call repeatedly.
func (l *LiveObjects) Close() { l.st.Close() }

// WatchEvent is one delta of a continuous kNN query: the pinned snapshot
// version, the full current top-k, and the changes since the previous event.
type WatchEvent struct {
	// Version is the store version this evaluation was exact against.
	Version uint64
	// Neighbors is the current result: up to k nearest, ascending exact
	// network distance.
	Neighbors []Neighbor
	// Added holds neighbors that entered the top-k since the last event.
	Added []Neighbor
	// Removed holds the object ids that left the top-k (removed, expired,
	// moved away, or displaced), ascending.
	Removed []int32
	// Changed holds neighbors still in the top-k whose distance changed
	// (the object moved, yet stayed among the k nearest).
	Changed []Neighbor
}

// Watch is continuous kNN over the live world: it evaluates the k nearest
// objects to q, yields the initial result as an event (everything Added),
// then re-evaluates whenever the store's version changes and yields an
// event per change to the top-k — a moving fleet streamed as deltas. Events
// carry exact distances (diffs must be deterministic), and each is exact
// for the version it pins: mutations landing mid-evaluation are picked up
// by the next event. Version changes that leave the top-k identical yield
// nothing.
//
// The stream ends when ctx is cancelled (the final element yields ctx's
// error) or the consumer breaks out of the loop. WithMaxDistance and
// WithMethod are honored per evaluation; an empty world evaluates to zero
// neighbors rather than an error.
func (e *Engine) Watch(ctx context.Context, live *LiveObjects, q VertexID, k int, opts ...Option) iter.Seq2[WatchEvent, error] {
	return func(yield func(WatchEvent, error) bool) {
		if live == nil {
			yield(WatchEvent{}, ErrNilObjects)
			return
		}
		if err := checkVertex(e.net, "q", q); err != nil {
			yield(WatchEvent{}, err)
			return
		}
		if err := checkK(k); err != nil {
			yield(WatchEvent{}, err)
			return
		}
		// Exact distances keep the delta computation deterministic; the
		// caller's own options still select method and distance bound.
		qopts := make([]Option, 0, len(opts)+1)
		qopts = append(qopts, opts...)
		qopts = append(qopts, WithExactDistances())

		prev := make(map[int32]float64)
		first := true
		var lastVersion uint64
		for {
			if err := ctx.Err(); err != nil {
				yield(WatchEvent{}, err)
				return
			}
			changed := live.Changed() // before View: no lost wakeups
			view := live.View()
			if !first && view.version == lastVersion {
				select {
				case <-changed:
					continue
				case <-ctx.Done():
					yield(WatchEvent{}, ctx.Err())
					return
				}
			}
			var res Result
			if view.Len() > 0 {
				var err error
				res, err = e.Query(ctx, view, q, k, qopts...)
				if err != nil {
					yield(WatchEvent{}, err)
					return
				}
			}
			lastVersion = view.version
			ev, dirty := diffWatch(prev, res.Neighbors, view.version)
			if first || dirty {
				if !yield(ev, nil) {
					return
				}
			}
			first = false
			clear(prev)
			for _, n := range res.Neighbors {
				prev[n.ID] = n.Dist
			}
		}
	}
}

// diffWatch computes one watch delta against the previous top-k.
func diffWatch(prev map[int32]float64, now []Neighbor, version uint64) (WatchEvent, bool) {
	ev := WatchEvent{Version: version, Neighbors: now}
	for _, n := range now {
		d, ok := prev[n.ID]
		switch {
		case !ok:
			ev.Added = append(ev.Added, n)
		case d != n.Dist:
			ev.Changed = append(ev.Changed, n)
		}
	}
	inNow := make(map[int32]bool, len(now))
	for _, n := range now {
		inNow[n.ID] = true
	}
	for id := range prev {
		if !inNow[id] {
			ev.Removed = append(ev.Removed, id)
		}
	}
	sort.Slice(ev.Removed, func(i, j int) bool { return ev.Removed[i] < ev.Removed[j] })
	dirty := len(ev.Added)+len(ev.Removed)+len(ev.Changed) > 0
	return ev, dirty
}
