package silc

import (
	"errors"
	"fmt"
	"math"

	"silc/internal/store"
)

// The typed errors of the query API. Every Engine entry point validates its
// arguments at the API edge and returns one of these (wrapped with detail —
// match with errors.Is) instead of panicking deep inside the query
// algorithms. Cancellation and deadline expiry surface as the context's own
// error (context.Canceled / context.DeadlineExceeded).
var (
	// ErrVertexRange reports a vertex id outside [0, NumVertices).
	ErrVertexRange = errors.New("silc: vertex id out of range")
	// ErrBadK reports a non-positive neighbor count.
	ErrBadK = errors.New("silc: k must be positive")
	// ErrNilObjects reports a nil object set.
	ErrNilObjects = errors.New("silc: nil object set")
	// ErrEmptyObjects reports an object set with no objects.
	ErrEmptyObjects = errors.New("silc: empty object set")
	// ErrBadRadius reports a negative or NaN distance bound.
	ErrBadRadius = errors.New("silc: radius must be a non-negative number")
	// ErrBadEpsilon reports a negative or non-finite approximation factor.
	ErrBadEpsilon = errors.New("silc: epsilon must be finite and non-negative")
	// ErrNilNetwork reports a nil network handle.
	ErrNilNetwork = errors.New("silc: nil network")
	// ErrBadMethod reports an unknown kNN method selector.
	ErrBadMethod = errors.New("silc: unknown method")
	// ErrUnknownObject reports a live-store object id that does not exist
	// (never inserted, removed, or expired).
	ErrUnknownObject = errors.New("silc: unknown object id")
	// ErrBadMagic reports that what OpenEngine, OpenEngineAt, OpenIndex or
	// OpenIndexAt was handed is not a paged index image. An image of the
	// removed fixed-width format is rejected with it too; its message says
	// to rebuild the image with silcbuild -o.
	ErrBadMagic = store.ErrBadMagic
)

// checkVertex validates one caller-supplied vertex id against the network.
func checkVertex(net *Network, name string, v VertexID) error {
	if n := net.NumVertices(); v < 0 || int(v) >= n {
		return fmt.Errorf("%w: %s=%d, want [0,%d)", ErrVertexRange, name, v, n)
	}
	return nil
}

// checkObjects validates an object set against the engine's network.
func checkObjects(objs *ObjectSet) error {
	if objs == nil || objs.objs == nil {
		return ErrNilObjects
	}
	if objs.Len() == 0 {
		return ErrEmptyObjects
	}
	return nil
}

// checkK validates a neighbor count.
func checkK(k int) error {
	if k <= 0 {
		return fmt.Errorf("%w: got %d", ErrBadK, k)
	}
	return nil
}

// checkRadius validates a distance bound (non-negative; +Inf is allowed and
// means unbounded).
func checkRadius(r float64) error {
	if math.IsNaN(r) || r < 0 {
		return fmt.Errorf("%w: got %v", ErrBadRadius, r)
	}
	return nil
}
