package silc

import (
	"fmt"
	"math"

	"silc/internal/knn"
)

// Option configures one query on an Engine: every Engine query entry point
// accepts any combination, and each documents which options it honors.
// WithEpsilon means one thing on every call that refines a distance;
// options a call has no use for (WithWorkers on a single query, say) leave
// it as it is.
type Option func(*queryOptions)

// queryOptions is the resolved option set of one query.
type queryOptions struct {
	method    Method
	epsilon   float64
	maxDist   float64 // +Inf = unbounded
	workers   int
	exact     bool
	statsInto *QueryStats
}

// spec is the kNN search the options select for k; the INE/IER baselines
// read only K, Epsilon and MaxDist from it.
func (o queryOptions) spec(k int) knn.Spec {
	v := knn.VariantKNN
	switch o.method {
	case MethodINN:
		v = knn.VariantINN
	case MethodKNNI:
		v = knn.VariantKNNI
	case MethodKNNM:
		v = knn.VariantKNNM
	}
	return knn.Spec{K: k, Variant: v, Epsilon: o.epsilon, MaxDist: o.maxDist}
}

// defaultOptions returns the exact, unbounded, MethodKNN defaults.
func defaultOptions() queryOptions {
	return queryOptions{method: MethodKNN, maxDist: math.Inf(1)}
}

// resolveOptions applies opts over the defaults and validates the knob
// values, so every query entry point rejects bad options uniformly.
// Option application lives in applyOptions so that the common zero-option
// call never heap-allocates: opt(&o) is an indirect call, which makes
// escape analysis move o to the heap in any function containing it.
func resolveOptions(opts []Option) (queryOptions, error) {
	o := defaultOptions()
	if len(opts) > 0 {
		o = applyOptions(opts)
	}
	if o.method < MethodKNN || o.method > MethodIER {
		return o, fmt.Errorf("%w %d", ErrBadMethod, o.method)
	}
	if math.IsNaN(o.epsilon) || math.IsInf(o.epsilon, 0) || o.epsilon < 0 {
		return o, fmt.Errorf("%w: got %v", ErrBadEpsilon, o.epsilon)
	}
	if err := checkRadius(o.maxDist); err != nil {
		return o, err
	}
	return o, nil
}

// applyOptions folds opts over the defaults. The receiver copy escapes
// (its address is passed to caller-supplied closures), costing one
// allocation — paid only by calls that actually pass options.
func applyOptions(opts []Option) queryOptions {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithMethod selects the kNN algorithm (default MethodKNN). Honored by
// Query and QueryBatch; Neighbors always streams incrementally (INN).
func WithMethod(m Method) Option {
	return func(o *queryOptions) { o.method = m }
}

// WithEpsilon makes a query ε-approximate; ε = 0 (the default) keeps it
// exact, and larger ε means fewer progressive refinements. Query,
// QueryBatch, Neighbors, Distance and WithinDistance honor it:
//   - Query, QueryBatch and Neighbors report a neighbor as soon as its
//     distance interval satisfies δ⁺ ≤ (1+ε)·δ⁻, which certifies its true
//     network distance within a (1+ε) factor of the true distance at that
//     rank; the exact INE/IER baselines satisfy every ε as they are.
//   - Distance refines until δ⁺ ≤ (1+ε)·δ⁻.
//   - WithinDistance(radius) returns every object within radius and none
//     beyond (1+ε)·radius.
//
// Reported distances are interval lower bounds, so every one of them, d,
// satisfies d ≤ true ≤ (1+ε)·d.
func WithEpsilon(eps float64) Option {
	return func(o *queryOptions) { o.epsilon = eps }
}

// WithMaxDistance bounds results to network distance ≤ d — the hybrid
// kNN∩range query on Query/QueryBatch (up to k neighbors, all within d) and
// a stream cutoff on Neighbors. d = +Inf (the default) disables the bound;
// d = 0 is a real bound (only objects at distance zero), consistent with
// WithinDistance's radius semantics. Negative or NaN values return
// ErrBadRadius from the query.
func WithMaxDistance(d float64) Option {
	return func(o *queryOptions) { o.maxDist = d }
}

// WithWorkers bounds the worker pool of QueryBatch (default GOMAXPROCS;
// values ≤ 0 select the default). Single queries ignore it.
func WithWorkers(n int) Option {
	return func(o *queryOptions) { o.workers = n }
}

// WithStats points a streaming query at a statistics sink: Neighbors
// updates *dst with the stream's cumulative statistics (lookups,
// refinements, buffer-pool traffic) after every yielded neighbor, so *dst
// holds the final numbers when the sequence ends however it ends.
// Distance, DistanceInterval and ShortestPath fill *dst once, when the query
// ends, failed or not. Query, QueryBatch, and WithinDistance report
// statistics on their Result instead and ignore this option.
func WithStats(dst *QueryStats) Option {
	return func(o *queryOptions) { o.statsInto = dst }
}

// WithExactDistances refines every reported neighbor's distance to exact
// before returning. Without it, distances are refined only as far as
// ranking requires (the paper's contract) — Exact is set per neighbor.
// Combined with WithEpsilon the ranking stays ε-approximate but the
// distances reported for the chosen neighbors are exact. Honored by Query
// and QueryBatch.
func WithExactDistances() Option {
	return func(o *queryOptions) { o.exact = true }
}
