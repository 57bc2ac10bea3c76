package silc

import (
	"fmt"
	"strings"
	"time"

	"silc/internal/knn"
)

// ObjectSet is a set S of query objects placed on network vertices, indexed
// by a PMR quadtree. Object sets are independent of any index: build them,
// discard them, and swap them freely — the precomputed shortest paths are
// reused across all of them (the paper's decoupling property).
type ObjectSet struct {
	net  *Network
	objs *knn.Objects
	// version is the live-store snapshot version this set pins, zero for
	// static sets. Queries stamp it into Result.Stats.SnapshotVersion.
	version uint64
}

// NewObjectSet places one object on each listed vertex (duplicates
// allowed). Object IDs are dense in input order. Every vertex id is
// validated at this API edge: an id outside [0, NumVertices) returns
// ErrVertexRange, an empty list ErrEmptyObjects, a nil network
// ErrNilNetwork — instead of the out-of-bounds panic the pre-validation
// surface deferred to query time.
func NewObjectSet(net *Network, vertices []VertexID) (*ObjectSet, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	if len(vertices) == 0 {
		return nil, ErrEmptyObjects
	}
	n := net.NumVertices()
	for i, v := range vertices {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("%w: vertices[%d]=%d, want [0,%d)", ErrVertexRange, i, v, n)
		}
	}
	return &ObjectSet{net: net, objs: knn.NewObjects(net.g, vertices)}, nil
}

// NewObjectSetFromPoints snaps each point to its nearest network vertex and
// places an object there. Distinct points snapping to the same vertex
// collapse into ONE object — object ids are dense over the distinct snapped
// vertices in first-appearance order, not over the input points — so an id
// keeps identifying one network location (Remove/Move on a live store, and
// kNN results, never see phantom duplicates of one vertex). (The paper
// supports objects on edges and faces as well; this library implements the
// vertex-resident case its evaluation exercises.)
func NewObjectSetFromPoints(net *Network, pts []Point) (*ObjectSet, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	if len(pts) == 0 {
		return nil, ErrEmptyObjects
	}
	seen := make(map[VertexID]struct{}, len(pts))
	vs := make([]VertexID, 0, len(pts))
	for _, p := range pts {
		v := net.g.NearestVertex(p)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		vs = append(vs, v)
	}
	return NewObjectSet(net, vs)
}

// Len returns |S|.
func (s *ObjectSet) Len() int { return s.objs.Len() }

// Version returns the live-store snapshot version this set pins, zero for
// static sets built by the NewObjectSet constructors.
func (s *ObjectSet) Version() uint64 { return s.version }

// Vertex returns the vertex hosting object id; NoVertex for an id a view of
// a live world does not hold. A view builds its id table on the first call.
func (s *ObjectSet) Vertex(id int32) VertexID { return s.objs.ByID(id).Vertex }

// NearestEuclidean returns up to k object ids ordered by straight-line
// ("as the crow flies") distance from p — the geodesic ranking the paper's
// motivating examples compare against.
func (s *ObjectSet) NearestEuclidean(p Point, k int) []int32 {
	objs := s.objs.Tree().NearestEuclidean(p, k)
	out := make([]int32, len(objs))
	for i, o := range objs {
		out[i] = s.objs.Label(o.ID) // tree objects carry dense slots
	}
	return out
}

// Method selects the kNN algorithm.
type Method int

const (
	// MethodKNN is the paper's non-incremental best-first algorithm
	// (default; fastest at small k).
	MethodKNN Method = iota
	// MethodINN is the incremental algorithm (no Dk pruning; cheapest L
	// management, preferred at large k).
	MethodINN
	// MethodKNNI filters the queue with the static first-k estimate D⁰k.
	MethodKNNI
	// MethodKNNM skips total-ordering refinements via KMINDIST; its results
	// are unsorted. Exact on path-coherent road networks; see the package
	// documentation of internal/knn for the boundary caveat.
	MethodKNNM
	// MethodINE is the incremental-network-expansion baseline (Dijkstra
	// with a result buffer); needs no SILC index data.
	MethodINE
	// MethodIER is the incremental-Euclidean-restriction baseline (Euclidean
	// filter plus per-candidate A*).
	MethodIER
)

// String returns the method's name as used in the paper.
func (m Method) String() string {
	switch m {
	case MethodKNN:
		return "KNN"
	case MethodINN:
		return "INN"
	case MethodKNNI:
		return "KNN-I"
	case MethodKNNM:
		return "KNN-M"
	case MethodINE:
		return "INE"
	case MethodIER:
		return "IER"
	default:
		return "unknown"
	}
}

// ParseMethod resolves a method name (as printed by Method.String; the
// hyphen in KNN-I/KNN-M is optional, case-insensitive). The empty string
// selects MethodKNN.
func ParseMethod(name string) (Method, error) {
	switch strings.ToUpper(name) {
	case "", "KNN":
		return MethodKNN, nil
	case "INN":
		return MethodINN, nil
	case "KNN-I", "KNNI":
		return MethodKNNI, nil
	case "KNN-M", "KNNM":
		return MethodKNNM, nil
	case "INE":
		return MethodINE, nil
	case "IER":
		return MethodIER, nil
	default:
		return 0, fmt.Errorf("%w %q", ErrBadMethod, name)
	}
}

// Neighbor is one reported nearest neighbor.
type Neighbor struct {
	// ID is the object's id within its ObjectSet.
	ID int32
	// Vertex hosts the object.
	Vertex VertexID
	// Dist is the network distance from the query (exact when Exact; under
	// WithEpsilon, the certified interval's lower bound).
	Dist float64
	// Interval is the final distance interval; a point interval when Exact.
	Interval Interval
	// Exact reports whether Dist is exact.
	Exact bool
}

// QueryStats describes one query's execution. The storage counters
// (PageReads, Evictions, BlocksDecoded) and the phase clocks are filled
// from the query's trace span; per-query PageHits/PageMisses/PageReads
// summed over a workload reproduce the engine's pool-wide IOStats
// exactly when every touch is query-attributed.
type QueryStats struct {
	Method      string
	MaxQueue    int   // peak search-queue size
	Refinements int   // progressive-refinement steps
	Lookups     int   // interval computations
	Settled     int   // graph vertices settled (INE/IER)
	HeapPushes  int64 // search-queue pushes (best-first family)
	PageHits    int64 // buffer-pool hits (disk-backed indexes)
	PageMisses  int64 // buffer-pool misses
	// PageReads counts the missed page frames the paged store filled for
	// this query — a positioned read, or a copy out of the image's mapping
	// (zero on in-RAM indexes).
	PageReads int64
	// Evictions counts pool pages this query's touches displaced.
	Evictions int64
	// BlocksDecoded counts quadtree blocks the paged store's decoder
	// actually passed: a tree decode counts the run's blocks, a lookup
	// those from the restart entry in front of its block through that
	// block, at most 16.
	BlocksDecoded int64
	// GatewayRoutes counts candidate gateway routes raced by cross-cell
	// refiners (sharded indexes only).
	GatewayRoutes int64
	CPUTime       time.Duration // measured computation time
	// SnapshotVersion is the live object-store version the query's pinned
	// snapshot reflects — the result is exact against exactly that version.
	// Zero for static object sets.
	SnapshotVersion uint64
	// FilterTime is the object-hierarchy filter phase's wall clock and
	// RefineTime the remainder (CPUTime − FilterTime); both are zero
	// unless the engine's tracing is enabled (Engine.SetTracing).
	FilterTime time.Duration
	RefineTime time.Duration
}

// Result is the outcome of a kNN query.
type Result struct {
	// Neighbors holds up to k neighbors, in increasing network distance
	// unless Sorted is false (MethodKNNM).
	Neighbors []Neighbor
	Sorted    bool
	Stats     QueryStats
}

func convertResult(raw knn.Result) Result {
	out := Result{Sorted: raw.Sorted, Stats: convertStats(raw.Stats)}
	out.Neighbors = make([]Neighbor, len(raw.Neighbors))
	for i, n := range raw.Neighbors {
		out.Neighbors[i] = Neighbor{
			ID:       n.Object.ID,
			Vertex:   n.Object.Vertex,
			Dist:     n.Dist,
			Interval: n.Interval,
			Exact:    n.Exact,
		}
	}
	return out
}

// convertStats is the one knn.Stats → QueryStats conversion; foldIO adds
// the context's storage and span counters on top.
func convertStats(s knn.Stats) QueryStats {
	return QueryStats{
		Method:      s.Algorithm,
		MaxQueue:    s.MaxQueue,
		Refinements: s.Refinements,
		Lookups:     s.Lookups,
		Settled:     s.Settled,
		PageHits:    s.IO.Hits,
		PageMisses:  s.IO.Misses,
		CPUTime:     s.CPU,
	}
}
