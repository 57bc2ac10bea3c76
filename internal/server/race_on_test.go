//go:build race

package server

// raceEnabled reports whether the race detector instruments this build.
// Instrumentation adds its own allocations, and sync.Pool drops items at
// random under it, so TestServerAllocBudget skips itself under -race.
const raceEnabled = true
