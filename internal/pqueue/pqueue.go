// Package pqueue provides the priority-queue machinery shared by the
// shortest-path and nearest-neighbor algorithms: a plain 4-ary min-heap
// keyed by float64 priorities, an indexed heap with update/remove by handle
// (needed for the kNN result list L, whose members are re-keyed on every
// refinement), and a bounded max-heap for best-k accumulation.
package pqueue

import (
	"math"
	"math/bits"
)

// Min is a 4-ary min-heap of values of type T ordered by a float64 key.
// The zero value is an empty, ready-to-use heap.
//
// The 4-ary shape halves the sift depth of a binary heap, which matters
// because the pop-heavy Dijkstra frontiers spend most of their heap time
// sifting down. Each item is stored as one {key, value} pair whose key is an
// order-preserving integer image of the float (see keyBits), so the sift
// picks the least of four children with integer arithmetic and no branch,
// and a node's four children sit next to each other.
//
// Keys must not be NaN. -0 and +0 are the same key, and Pop and PeekKey
// return it as +0; every other key comes back bit for bit. Among
// equal keys the pop order is a fixed function of the push/pop sequence,
// and the SILC build's images depend on it: a tie between two shortest
// paths is broken by which vertex is settled first.
type Min[T any] struct {
	items []minItem[T]
}

type minItem[T any] struct {
	key uint64
	val T
}

// keyBits maps a non-NaN float64 to a uint64 with the same order: the sign
// bit is flipped on non-negative values and every bit on negative ones, so
// the integer order of the images is the float order. -0 folds to +0, which
// the float order treats as equal.
func keyBits(f float64) uint64 {
	if f == 0 {
		return 1 << 63
	}
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyFloat inverts keyBits.
func keyFloat(k uint64) float64 {
	return math.Float64frombits(k ^ (k>>63 - 1 | 1<<63))
}

// Len returns the number of queued items.
func (h *Min[T]) Len() int { return len(h.items) }

// Push inserts v with the given key, which must not be NaN.
func (h *Min[T]) Push(key float64, v T) {
	h.items = append(h.items, minItem[T]{keyBits(key), v})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum-key item. It panics on an empty heap.
func (h *Min[T]) Pop() (float64, T) {
	n := len(h.items) - 1
	top := h.items[0]
	h.items[0] = h.items[n]
	h.items[n] = minItem[T]{}
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return keyFloat(top.key), top.val
}

// PeekKey returns the minimum key. It panics on an empty heap.
func (h *Min[T]) PeekKey() float64 { return keyFloat(h.items[0].key) }

// Reset empties the heap, retaining capacity.
func (h *Min[T]) Reset() {
	clearSlice(h.items)
	h.items = h.items[:0]
}

func (h *Min[T]) up(i int) {
	items := h.items
	it := items[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if items[parent].key <= it.key {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = it
}

// down sifts the item at i to its place. Among equal child keys the
// leftmost wins, and the item stops above any child whose key equals its
// own: both rules fix the tie order the SILC images depend on.
func (h *Min[T]) down(i int) {
	items := h.items
	n := len(items)
	it := items[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best, bestKey := first, items[first].key
		if first+3 < n {
			// A full family: a two-round tournament with no branch to
			// mispredict. The borrow of x-y is 1 exactly when x < y, so a
			// right key wins only when strictly smaller and the leftmost
			// of equal keys wins. The builtin mins compile to conditional
			// moves and the final select is a mask.
			fam := items[first : first+4 : first+4]
			k0, k1, k2, k3 := fam[0].key, fam[1].key, fam[2].key, fam[3].key
			m01, m23 := min(k0, k1), min(k2, k3)
			_, b01 := bits.Sub64(k1, k0, 0)
			_, b23 := bits.Sub64(k3, k2, 0)
			_, b := bits.Sub64(m23, m01, 0)
			j01, j23 := int(b01), 2+int(b23)
			best += j01 ^ (j01^j23)&-int(b)
			bestKey = min(m01, m23)
		} else {
			for c := first + 1; c < n; c++ {
				if k := items[c].key; k < bestKey {
					best, bestKey = c, k
				}
			}
		}
		if it.key <= bestKey {
			break
		}
		items[i] = items[best]
		i = best
	}
	items[i] = it
}

func clearSlice[T any](s []T) {
	var zero T
	for i := range s {
		s[i] = zero
	}
}

// Indexed is a binary heap whose items can be re-keyed or removed through
// handles returned by Push. Ordering is controlled by max: a max-heap keeps
// the largest key at the top (used for the kNN result list L ordered by the
// interval upper bound), a min-heap the smallest.
//
// Storage is a slot slab plus a free list: Push reuses freed slots instead
// of allocating, so a long-lived heap that is Reset between queries performs
// zero allocations in steady state. Handles are generation-stamped slot
// indices — a handle dies when its item is popped, removed, or the heap is
// Reset, and Valid reports false from then on even if the slot is reused.
type Indexed[T any] struct {
	slots []islot[T]
	heap  []int32 // heap order -> slot index
	free  []int32 // recycled slot indices
	max   bool
}

type islot[T any] struct {
	key float64
	val T
	pos int32  // index in heap; -1 when the slot is free
	gen uint32 // bumped on every free, invalidating outstanding handles
}

// Handle identifies an item in an Indexed heap.
type Handle[T any] struct {
	h   *Indexed[T]
	i   int32
	gen uint32
}

// Valid reports whether the handle still refers to a queued item.
func (h Handle[T]) Valid() bool {
	return h.h != nil && int(h.i) < len(h.h.slots) &&
		h.h.slots[h.i].gen == h.gen && h.h.slots[h.i].pos >= 0
}

// Value returns the item stored under the handle.
func (h Handle[T]) Value() T { return h.h.slots[h.i].val }

// InitMax prepares a zero-value (or previously used) heap as an empty
// max-ordered heap, retaining slab capacity. For embedding an Indexed by
// value in reusable query scratch.
func (h *Indexed[T]) InitMax() {
	h.max = true
	h.Reset()
}

// Len returns the number of queued items.
func (h *Indexed[T]) Len() int { return len(h.heap) }

// Reset empties the heap, invalidating every outstanding handle while
// retaining slab capacity for reuse.
func (h *Indexed[T]) Reset() {
	var zero T
	h.heap = h.heap[:0]
	h.free = h.free[:0]
	for i := range h.slots {
		s := &h.slots[i]
		s.val = zero
		s.pos = -1
		s.gen++
		h.free = append(h.free, int32(i))
	}
}

// Push inserts v with the given key and returns a handle for later updates.
func (h *Indexed[T]) Push(key float64, v T) Handle[T] {
	var i int32
	if n := len(h.free); n > 0 {
		i = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		i = int32(len(h.slots))
		h.slots = append(h.slots, islot[T]{})
	}
	s := &h.slots[i]
	s.key, s.val, s.pos = key, v, int32(len(h.heap))
	h.heap = append(h.heap, i)
	h.up(int(s.pos))
	return Handle[T]{h: h, i: i, gen: s.gen}
}

// Top returns the key and value of the root item without removing it.
// It panics on an empty heap.
func (h *Indexed[T]) Top() (float64, T) {
	s := &h.slots[h.heap[0]]
	return s.key, s.val
}

// TopKey returns the root key. It panics on an empty heap.
func (h *Indexed[T]) TopKey() float64 { return h.slots[h.heap[0]].key }

// Pop removes and returns the root item.
func (h *Indexed[T]) Pop() (float64, T) {
	i := h.heap[0]
	key, val := h.slots[i].key, h.slots[i].val
	h.removeAt(0)
	return key, val
}

// Update changes the key of the item behind the handle and restores heap
// order. It panics if the handle is no longer valid.
func (h *Indexed[T]) Update(hd Handle[T], key float64) {
	if !hd.Valid() {
		panic("pqueue: Update on invalid handle")
	}
	s := &h.slots[hd.i]
	s.key = key
	h.down(int(s.pos))
	h.up(int(s.pos))
}

// Remove deletes the item behind the handle. It panics if the handle is no
// longer valid.
func (h *Indexed[T]) Remove(hd Handle[T]) {
	if !hd.Valid() {
		panic("pqueue: Remove on invalid handle")
	}
	h.removeAt(int(h.slots[hd.i].pos))
}

// removeAt deletes the item at heap position i and frees its slot.
func (h *Indexed[T]) removeAt(i int) {
	n := len(h.heap) - 1
	si := h.heap[i]
	h.swap(i, n)
	h.heap = h.heap[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
	s := &h.slots[si]
	var zero T
	s.val = zero
	s.pos = -1
	s.gen++
	h.free = append(h.free, si)
}

// less orders heap position i before j according to the heap's direction.
func (h *Indexed[T]) less(i, j int) bool {
	if h.max {
		return h.slots[h.heap[i]].key > h.slots[h.heap[j]].key
	}
	return h.slots[h.heap[i]].key < h.slots[h.heap[j]].key
}

func (h *Indexed[T]) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.slots[h.heap[i]].pos = int32(i)
	h.slots[h.heap[j]].pos = int32(j)
}

func (h *Indexed[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Indexed[T]) down(i int) {
	n := len(h.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h.swap(i, child)
		i = child
	}
}

// AppendItems appends the queued values in heap (not sorted) order to dst
// and returns the extended slice, for draining results at the end of a
// search into a reused buffer.
func (h *Indexed[T]) AppendItems(dst []T) []T {
	for _, si := range h.heap {
		dst = append(dst, h.slots[si].val)
	}
	return dst
}
