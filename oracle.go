package silc

import (
	"silc/internal/oracle"
)

// DistanceOracle answers network-distance queries within a configurable
// relative error from storage that grows subquadratically — the
// path-coherent-pair (well-separated pair) construction the paper sketches
// as "Path Coherence Beyond SILC". It requires a symmetric (undirected)
// network.
type DistanceOracle struct {
	o *oracle.DistanceOracle
}

// BuildDistanceOracle constructs an ε-approximate oracle on top of an
// engine, monolithic or partitioned (the construction uses the engine's
// exact distances).
func BuildDistanceOracle(eng *Engine, eps float64) (*DistanceOracle, error) {
	o, err := oracle.BuildDistanceOracle(eng.qx, eps)
	if err != nil {
		return nil, err
	}
	return &DistanceOracle{o: o}, nil
}

// Distance returns the network distance from u to v within relative error ε.
func (d *DistanceOracle) Distance(u, v VertexID) float64 { return d.o.Distance(u, v) }

// Epsilon returns the configured error bound.
func (d *DistanceOracle) Epsilon() float64 { return d.o.Epsilon() }

// NumPairs returns the number of stored path-coherent cell pairs.
func (d *DistanceOracle) NumPairs() int { return d.o.NumPairs() }

// SizeBytes returns the oracle's storage footprint.
func (d *DistanceOracle) SizeBytes() int64 { return d.o.SizeBytes() }
