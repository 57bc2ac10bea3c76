package obs

import "time"

// Span is the per-query trace record. It is embedded by value in the
// pooled core.QueryContext, so recording into it is a plain struct
// field write — no allocation, no atomics (a query context is owned by
// exactly one goroutine between acquire and release). The engine zeroes
// the span on context reuse, stamps Begin/Op/Timed at acquire, and
// folds the finished span into its atomic aggregates at release; the
// span never outlives the context checkout, which is what keeps the
// steady-state allocation budget untouched.
type Span struct {
	// Begin is the query's wall-clock start, stamped at context
	// acquisition; release observes time.Since(Begin) into the per-op
	// latency histogram.
	Begin time.Time
	// Op tags the engine entry point (an engine-level enum; the obs
	// package does not interpret it).
	Op uint8
	// Timed enables the phase wall-clocks below. Off by default: the
	// extra time.Now pairs in the expansion loop cost real time on
	// warm in-memory queries, so serving processes opt in explicitly.
	Timed bool
	// FilterNanos is time spent in the filter phase — expanding the
	// object-hierarchy (region lower bounds and object discovery) —
	// when Timed. Refinement time is derived at fold as total minus
	// filter rather than paying a second clock in the tighter loop.
	FilterNanos int64
	// Refinements counts distance-refiner steps, across every layer
	// that steps one (best-first search, exactification, cross-cell
	// routing, IsCloser).
	Refinements int64
	// Lookups counts object interval computations in the best-first
	// search.
	Lookups int64
	// HeapPushes counts search-queue pushes.
	HeapPushes int64
	// CrossCell counts cross-cell route refiners built (sharded
	// indexes only).
	CrossCell int64
	// GatewayRoutes counts candidate gateway routes those refiners
	// race (the closure fan-out; sharded indexes only).
	GatewayRoutes int64
}
