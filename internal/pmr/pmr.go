// Package pmr implements the spatial index over the query-object set S: a
// bucket PR quadtree in the PMR style the paper uses. The index is decoupled
// from the network — the same object tree serves any SILC index, and object
// sets can change without touching precomputed shortest paths (the paper's
// decoupling argument).
package pmr

import (
	"cmp"
	"math"
	"slices"

	"silc/internal/geom"
	"silc/internal/graph"
	"silc/internal/pqueue"
)

// Object is one element of S. Objects live on network vertices (the case the
// paper's evaluation exercises); Pos caches the vertex position.
type Object struct {
	ID     int32
	Vertex graph.VertexID
	Pos    geom.Point
}

// DefaultBucketCapacity is the leaf split threshold.
const DefaultBucketCapacity = 8

// Tree is a bucket PR quadtree over objects.
type Tree struct {
	root     *Node
	capacity int
	size     int
}

// Node is one quadtree node. Exported read-only so search algorithms can
// drive their own best-first traversals.
type Node struct {
	cell     geom.Cell
	children *[4]*Node // nil for leaves
	objects  []Object  // leaf payload
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.children == nil }

// Cell returns the node's quadtree cell.
func (n *Node) Cell() geom.Cell { return n.cell }

// Rect returns the node's rectangle.
func (n *Node) Rect() geom.Rect { return n.cell.Rect() }

// Objects returns a leaf's objects (nil for interior nodes). The slice
// aliases internal storage and must not be modified.
func (n *Node) Objects() []Object { return n.objects }

// Children returns the four children of an interior node (entries may be
// nil) or nil for leaves.
func (n *Node) Children() []*Node {
	if n.children == nil {
		return nil
	}
	return n.children[:]
}

// New returns an empty tree with the given bucket capacity (0 selects
// DefaultBucketCapacity).
func New(capacity int) *Tree {
	if capacity <= 0 {
		capacity = DefaultBucketCapacity
	}
	return &Tree{root: &Node{cell: geom.RootCell()}, capacity: capacity}
}

// Len returns the number of stored objects.
func (t *Tree) Len() int { return t.size }

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Insert adds o to the tree in place: the bulk-build path of a tree nobody
// else can see yet. A tree that shares nodes with another (anything With or
// Without produced or was called on) must use those instead.
func (t *Tree) Insert(o Object) {
	t.size++
	code := o.Pos.Code()
	n := t.root
	for !n.IsLeaf() {
		n = n.childFor(code)
	}
	n.objects = append(n.objects, o)
	n.splitOver(code, t.capacity)
}

// splitOver splits the leaf n — not yet visible to any reader — while it is
// over capacity, following the quadrant of code, the position of the object
// whose arrival overfilled it: a leaf holds at most capacity+1 objects then,
// so after a split only the child that took them all can be over in turn.
// Identical-cell objects stop at MaxLevel.
func (n *Node) splitOver(code geom.Code, capacity int) {
	for len(n.objects) > capacity && n.cell.Level < geom.MaxLevel {
		n.split()
		n = n.childFor(code)
	}
}

// quadrant returns which child of n covers code.
func (n *Node) quadrant(code geom.Code) int {
	return int((code - n.cell.Code) / geom.Code(geom.Span(n.cell.Level+1)))
}

// childFor returns the child covering code, creating it if absent. It writes
// to n, so only Insert and split — which own their nodes — may call it.
func (n *Node) childFor(code geom.Code) *Node {
	i := n.quadrant(code)
	child := n.children[i]
	if child == nil {
		child = &Node{cell: n.cell.Child(i)}
		n.children[i] = child
	}
	return child
}

func (n *Node) split() {
	n.children = new([4]*Node)
	objs := n.objects
	n.objects = nil
	for _, o := range objs {
		c := n.childFor(o.Pos.Code())
		c.objects = append(c.objects, o)
	}
}

// With returns a tree that also holds o and leaves t as it was. The two share
// every node off the root-to-leaf path of o's position; the path itself is
// copied, and no node reachable from t is written — so any number of readers
// may keep searching t while successors are derived from it.
//
// With and Without keep the tree canonical: a node is interior exactly when
// its cell holds more than the bucket capacity (and can still be divided),
// absent quadrants are nil, and a leaf lists its objects by ascending ID.
// Whatever history produced a set, the tree is node for node the one Insert
// builds from that set in ID order.
func (t *Tree) With(o Object) *Tree {
	return &Tree{root: t.root.with(o, o.Pos.Code(), t.capacity), capacity: t.capacity, size: t.size + 1}
}

func (n *Node) with(o Object, code geom.Code, capacity int) *Node {
	if n.IsLeaf() {
		at, _ := n.find(o.ID)
		objs := make([]Object, 0, len(n.objects)+1)
		objs = append(append(append(objs, n.objects[:at]...), o), n.objects[at:]...)
		leaf := &Node{cell: n.cell, objects: objs}
		leaf.splitOver(code, capacity)
		return leaf
	}
	i := n.quadrant(code)
	cp := n.copyInterior()
	if c := n.children[i]; c != nil {
		cp.children[i] = c.with(o, code, capacity)
	} else {
		cp.children[i] = &Node{cell: n.cell.Child(i), objects: []Object{o}}
	}
	return cp
}

// find returns where in the leaf's ascending-ID list id is, or belongs.
func (n *Node) find(id int32) (int, bool) {
	return slices.BinarySearchFunc(n.objects, id, func(o Object, id int32) int { return cmp.Compare(o.ID, id) })
}

func (n *Node) copyInterior() *Node {
	kids := *n.children
	return &Node{cell: n.cell, children: &kids}
}

// Without returns a tree without the object that has o's ID at o's position,
// leaving t as it was (see With); ok is false, and the result is t itself,
// when no such object is stored.
func (t *Tree) Without(o Object) (*Tree, bool) {
	root, ok := t.root.without(o, o.Pos.Code(), t.capacity)
	if !ok {
		return t, false
	}
	if root == nil {
		root = &Node{cell: geom.RootCell()}
	}
	return &Tree{root: root, capacity: t.capacity, size: t.size - 1}, true
}

// without returns n's replacement — nil when nothing is left in its cell.
func (n *Node) without(o Object, code geom.Code, capacity int) (*Node, bool) {
	if n.IsLeaf() {
		at, found := n.find(o.ID)
		if !found {
			return n, false
		}
		if len(n.objects) == 1 {
			return nil, true
		}
		objs := make([]Object, 0, len(n.objects)-1)
		objs = append(append(objs, n.objects[:at]...), n.objects[at+1:]...)
		return &Node{cell: n.cell, objects: objs}, true
	}
	i := n.quadrant(code)
	c := n.children[i]
	if c == nil {
		return n, false
	}
	repl, ok := c.without(o, code, capacity)
	if !ok {
		return n, false
	}
	cp := n.copyInterior()
	cp.children[i] = repl
	// An interior child holds more than capacity on its own, so the cell can
	// only have fallen to capacity when every remaining child is a leaf.
	held := 0
	for _, c := range cp.children {
		if c == nil {
			continue
		}
		if !c.IsLeaf() {
			return cp, true
		}
		held += len(c.objects)
	}
	if held > capacity {
		return cp, true
	}
	objs := make([]Object, 0, held)
	for _, c := range cp.children {
		if c != nil {
			objs = append(objs, c.objects...)
		}
	}
	slices.SortFunc(objs, func(a, b Object) int { return cmp.Compare(a.ID, b.ID) })
	return &Node{cell: n.cell, objects: objs}, true
}

// NearestEuclidean returns up to k objects ordered by increasing Euclidean
// distance from p — the incremental filter of the IER baseline and the
// geodesic ("as the crow flies") ranking of the paper's motivating examples.
func (t *Tree) NearestEuclidean(p geom.Point, k int) []Object {
	out := make([]Object, 0, k)
	cursor := t.EuclideanBrowser(p)
	for len(out) < k {
		o, _, ok := cursor.Next()
		if !ok {
			break
		}
		out = append(out, o)
	}
	return out
}

// EuclideanBrowser is an incremental best-first cursor over objects by
// Euclidean distance.
type EuclideanBrowser struct {
	p    geom.Point
	heap pqueue.Min[euclElem]
}

type euclElem struct {
	node *Node
	obj  Object
}

// EuclideanBrowser returns a cursor positioned before the closest object.
func (t *Tree) EuclideanBrowser(p geom.Point) *EuclideanBrowser {
	b := &EuclideanBrowser{p: p}
	b.heap.Push(t.root.Rect().MinDist(p), euclElem{node: t.root})
	return b
}

// Next returns the next object in increasing Euclidean distance, its
// distance, and false when exhausted.
func (b *EuclideanBrowser) Next() (Object, float64, bool) {
	for b.heap.Len() > 0 {
		key, e := b.heap.Pop()
		if e.node == nil {
			return e.obj, key, true
		}
		if e.node.IsLeaf() {
			for _, o := range e.node.objects {
				b.heap.Push(b.p.Dist(o.Pos), euclElem{obj: o})
			}
			continue
		}
		for _, c := range e.node.children {
			if c != nil {
				b.heap.Push(c.Rect().MinDist(b.p), euclElem{node: c})
			}
		}
	}
	return Object{}, math.Inf(1), false
}

// FromVertices builds an object set from network vertices, assigning dense
// object IDs in input order.
func FromVertices(g *graph.Network, vertices []graph.VertexID, capacity int) *Tree {
	t := New(capacity)
	for i, v := range vertices {
		t.Insert(Object{ID: int32(i), Vertex: v, Pos: g.Point(v)})
	}
	return t
}
