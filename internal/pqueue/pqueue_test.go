package pqueue

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinHeapSortsKeys(t *testing.T) {
	f := func(keys []float64) bool {
		var h Min[int]
		clean := keys[:0]
		for _, k := range keys {
			if k == k { // drop NaNs: heaps require a total order
				clean = append(clean, k)
			}
		}
		for i, k := range clean {
			h.Push(k, i)
		}
		want := append([]float64(nil), clean...)
		sort.Float64s(want)
		for _, w := range want {
			got, _ := h.Pop()
			if got != w {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// peek returns the minimum key and value without removing them.
func peek[T any](h *Min[T]) (float64, T) { return keyFloat(h.items[0].key), h.items[0].val }

func TestMinHeapValuesFollowKeys(t *testing.T) {
	var h Min[string]
	h.Push(3, "c")
	h.Push(1, "a")
	h.Push(2, "b")
	if k, v := peek(&h); k != 1 || v != "a" {
		t.Fatalf("Peek = %v,%v", k, v)
	}
	for _, want := range []string{"a", "b", "c"} {
		if _, v := h.Pop(); v != want {
			t.Fatalf("got %q want %q", v, want)
		}
	}
}

func TestMinHeapReset(t *testing.T) {
	var h Min[int]
	for i := 0; i < 10; i++ {
		h.Push(float64(i), i)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	h.Push(5, 5)
	if k, v := h.Pop(); k != 5 || v != 5 {
		t.Fatalf("heap unusable after Reset: %v %v", k, v)
	}
}

func TestIndexedMaxOrdering(t *testing.T) {
	h := &Indexed[int]{max: true}
	keys := []float64{5, 1, 9, 3, 7}
	for i, k := range keys {
		h.Push(k, i)
	}
	want := append([]float64(nil), keys...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for _, w := range want {
		k, _ := h.Pop()
		if k != w {
			t.Fatalf("got %v want %v", k, w)
		}
	}
}

func TestIndexedUpdateAndRemove(t *testing.T) {
	h := &Indexed[string]{max: true}
	a := h.Push(10, "a")
	b := h.Push(20, "b")
	c := h.Push(30, "c")
	if k, v := h.Top(); k != 30 || v != "c" {
		t.Fatalf("Top = %v,%v", k, v)
	}
	h.Update(c, 5) // c sinks to the bottom
	if k, v := h.Top(); k != 20 || v != "b" {
		t.Fatalf("after update Top = %v,%v", k, v)
	}
	h.Remove(b)
	if b.Valid() {
		t.Fatal("handle b should be invalid after Remove")
	}
	if k, v := h.Top(); k != 10 || v != "a" {
		t.Fatalf("after remove Top = %v,%v", k, v)
	}
	h.Update(a, 1)
	if k, _ := h.Top(); k != 5 {
		t.Fatalf("after re-key Top key = %v, want 5 (c)", k)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestIndexedRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		h := &Indexed[int]{}
		type item struct {
			key    float64
			handle Handle[int]
		}
		var live []*item
		n := rng.Intn(60) + 1
		for i := 0; i < n; i++ {
			it := &item{key: rng.Float64()}
			it.handle = h.Push(it.key, i)
			live = append(live, it)
		}
		// Random updates and removals.
		for op := 0; op < n; op++ {
			if len(live) == 0 {
				break
			}
			i := rng.Intn(len(live))
			switch rng.Intn(3) {
			case 0:
				live[i].key = rng.Float64()
				h.Update(live[i].handle, live[i].key)
			case 1:
				h.Remove(live[i].handle)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				// no-op
			}
		}
		want := make([]float64, len(live))
		for i, it := range live {
			want[i] = it.key
		}
		sort.Float64s(want)
		for _, w := range want {
			k, _ := h.Pop()
			if k != w {
				t.Fatalf("trial %d: got %v want %v", trial, k, w)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: leftover items", trial)
		}
	}
}

func TestIndexedItems(t *testing.T) {
	h := &Indexed[int]{max: true}
	for i := 0; i < 5; i++ {
		h.Push(float64(i), i)
	}
	items := h.AppendItems(nil)
	if len(items) != 5 {
		t.Fatalf("Items len = %d", len(items))
	}
	seen := map[int]bool{}
	for _, v := range items {
		seen[v] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[i] {
			t.Fatalf("missing item %d", i)
		}
	}
}

func TestIndexedPanicsOnInvalidHandle(t *testing.T) {
	h := &Indexed[int]{}
	hd := h.Push(1, 1)
	h.Remove(hd)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on stale handle")
		}
	}()
	h.Update(hd, 2)
}

// refMin is Min as it was with float64 keys in a separate array: the
// reference for the pop order among equal keys, which the SILC images
// depend on.
type refMin[T any] struct {
	keys []float64
	vals []T
}

func (h *refMin[T]) Len() int { return len(h.keys) }

func (h *refMin[T]) Push(key float64, v T) {
	h.keys = append(h.keys, key)
	h.vals = append(h.vals, v)
	i := len(h.keys) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if h.keys[parent] <= key {
			break
		}
		h.keys[i], h.vals[i] = h.keys[parent], h.vals[parent]
		i = parent
	}
	h.keys[i], h.vals[i] = key, v
}

func (h *refMin[T]) Pop() (float64, T) {
	n := len(h.keys) - 1
	key, val := h.keys[0], h.vals[0]
	h.keys[0], h.vals[0] = h.keys[n], h.vals[n]
	h.keys, h.vals = h.keys[:n], h.vals[:n]
	if n > 0 {
		i, k, v := 0, h.keys[0], h.vals[0]
		for {
			first := i<<2 + 1
			if first >= n {
				break
			}
			best, bestKey := first, h.keys[first]
			for c := first + 1; c < first+4 && c < n; c++ {
				if h.keys[c] < bestKey {
					best, bestKey = c, h.keys[c]
				}
			}
			if k <= bestKey {
				break
			}
			h.keys[i], h.vals[i] = bestKey, h.vals[best]
			i = best
		}
		h.keys[i], h.vals[i] = k, v
	}
	return key, val
}

// tieKeys is the key alphabet of FuzzMinMatchesReference: few distinct
// values, so most pushes tie, with both zeros, both infinities, negatives,
// subnormals and the extremes.
var tieKeys = []float64{
	0, math.Copysign(0, -1), 1, 1, 2, -1, -2.5, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 0.1, 0.1 + 0.2, 0.3,
}

// sameKey compares popped keys: bit for bit, except that Min returns -0
// as +0.
func sameKey(got, want float64) bool {
	if want == 0 {
		return got == 0 && !math.Signbit(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// FuzzMinMatchesReference drives Min and refMin through the same push/pop
// sequence and requires the identical (key, value) sequence out.
func FuzzMinMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xff, 0xff})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0xff, 1, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 2, 1, 0, 7, 8, 9, 10, 0xff, 5, 5, 5, 0xff, 0xff, 4, 4})
	seed := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var got Min[int]
		var want refMin[int]
		pop := func(step int) {
			gk, gv := got.Pop()
			wk, wv := want.Pop()
			if !sameKey(gk, wk) || gv != wv {
				t.Fatalf("op %d: Pop = (%v, %d), reference (%v, %d)", step, gk, gv, wk, wv)
			}
		}
		for i, op := range ops {
			switch {
			case op == 0xff && want.Len() > 0:
				pop(i)
			case op >= 0xe0:
				// A key outside the alphabet, drawn from the next bytes.
				var b [8]byte
				copy(b[:], ops[i:])
				k := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
				if k != k {
					k = float64(op)
				}
				got.Push(k, i)
				want.Push(k, i)
			case op != 0xff:
				k := tieKeys[int(op)%len(tieKeys)]
				got.Push(k, i)
				want.Push(k, i)
			}
			if got.Len() != want.Len() {
				t.Fatalf("op %d: Len = %d, reference %d", i, got.Len(), want.Len())
			}
			if got.Len() > 0 {
				wk, wv := want.keys[0], want.vals[0]
				if gk, gv := peek(&got); !sameKey(gk, wk) || gv != wv {
					t.Fatalf("op %d: Peek = (%v, %d), reference (%v, %d)", i, gk, gv, wk, wv)
				}
			}
		}
		for step := len(ops); want.Len() > 0; step++ {
			pop(step)
		}
	})
}

func TestKeyBitsOrder(t *testing.T) {
	keys := append([]float64(nil), tieKeys...)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		k := math.Float64frombits(rng.Uint64())
		if k == k {
			keys = append(keys, k)
		}
	}
	for _, a := range keys {
		if back := keyFloat(keyBits(a)); !sameKey(back, a) {
			t.Fatalf("keyFloat(keyBits(%v)) = %v", a, back)
		}
		for _, b := range keys {
			if (a < b) != (keyBits(a) < keyBits(b)) || (a == b) != (keyBits(a) == keyBits(b)) {
				t.Fatalf("keyBits breaks the order of %v and %v", a, b)
			}
		}
	}
}
