// Package silc is a Go implementation of the SILC framework from "Scalable
// Network Distance Browsing in Spatial Databases" (Samet, Sankaranarayanan,
// Alborzi; SIGMOD 2008): precomputed all-pairs shortest paths for spatial
// networks, stored as one shortest-path quadtree per vertex in O(N√N) Morton
// blocks, queried through progressively-refined network-distance intervals.
//
// The library answers exact network-distance k-nearest-neighbor queries,
// incremental "distance browsing", shortest-path retrieval, and
// network-distance computation — all without running a graph search at query
// time. The query-object domain is decoupled from the network: object sets
// change freely without touching the precomputed index.
//
// The Engine is the one index handle — monolithic or partitioned, in RAM or
// paged from disk — and its queries are context-aware and error-returning,
// with functional options (WithMethod, WithEpsilon, WithMaxDistance,
// WithWorkers, WithExactDistances). Build makes one, WriteFile persists it,
// and OpenEngine serves the image from disk. Basic use:
//
//	net, _ := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 1})
//	eng, _ := silc.Build(net, silc.BuildOptions{}) // Partitions: 4 shards it
//	objs, _ := silc.NewObjectSet(net, storeVertices)
//	res, _ := eng.Query(ctx, objs, queryVertex, 5, silc.WithExactDistances())
//	for _, n := range res.Neighbors {
//	    fmt.Println(n.Vertex, n.Dist)
//	}
//	for n, err := range eng.Neighbors(ctx, objs, queryVertex) {
//	    if err != nil {
//	        break // cancelled or invalid arguments
//	    }
//	    fmt.Println(n.Vertex, n.Dist) // incremental distance browsing
//	}
//
// See DESIGN.md for the system inventory (§7 covers the query API's
// options model, error taxonomy, and cancellation points).
package silc

import (
	"io"

	"silc/internal/geom"
	"silc/internal/graph"
)

// VertexID identifies a network vertex.
type VertexID = graph.VertexID

// NoVertex is the sentinel for "no vertex".
const NoVertex = graph.NoVertex

// Point is a location in the unit square.
type Point = geom.Point

// RoadNetworkOptions parameterizes the synthetic road-network generator.
type RoadNetworkOptions = graph.RoadNetworkOptions

// Network is a spatial network: a directed graph with vertices embedded in
// the unit square and positive edge weights. Networks are immutable once
// built.
type Network struct {
	g *graph.Network
}

// NumVertices returns the vertex count.
func (n *Network) NumVertices() int { return n.g.NumVertices() }

// NumEdges returns the directed edge count.
func (n *Network) NumEdges() int { return n.g.NumEdges() }

// Point returns the position of v.
func (n *Network) Point(v VertexID) Point { return n.g.Point(v) }

// Degree returns the out-degree of v.
func (n *Network) Degree(v VertexID) int { return n.g.Degree(v) }

// Neighbors returns v's out-neighbors and edge weights (shared storage; do
// not modify).
func (n *Network) Neighbors(v VertexID) ([]VertexID, []float64) { return n.g.Neighbors(v) }

// Euclid returns the Euclidean distance between two vertices.
func (n *Network) Euclid(u, v VertexID) float64 { return n.g.Euclid(u, v) }

// NearestVertex returns the vertex closest to p (linear scan; for query
// snapping at scale put the candidates in an ObjectSet instead).
func (n *Network) NearestVertex(p Point) VertexID { return n.g.NearestVertex(p) }

// Write serializes the network in the text interchange format.
func (n *Network) Write(w io.Writer) error { return graph.Write(w, n.g) }

// LoadNetwork parses a network from the text interchange format.
func LoadNetwork(r io.Reader) (*Network, error) {
	g, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// GenerateRoadNetwork builds a synthetic road network: a perturbed lattice
// with holes, dropped segments and diagonal shortcuts, restricted to its
// largest connected component. Edge weights are Euclidean length times a
// noise factor >= 1, so network distance dominates straight-line distance.
func GenerateRoadNetwork(opts RoadNetworkOptions) (*Network, error) {
	g, err := graph.GenerateRoadNetwork(opts)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// GenerateGrid builds a clean lattice network (deterministic; useful for
// tests and examples).
func GenerateGrid(rows, cols int) (*Network, error) {
	g, err := graph.GenerateGrid(rows, cols)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// GenerateRingRadial builds a ring-and-spoke "town" network.
func GenerateRingRadial(rings, spokes int, seed int64) (*Network, error) {
	g, err := graph.GenerateRingRadial(rings, spokes, seed)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// NetworkBuilder assembles a custom network vertex by vertex.
type NetworkBuilder struct {
	b *graph.Builder
}

// NewNetworkBuilder returns an empty builder.
func NewNetworkBuilder() *NetworkBuilder { return &NetworkBuilder{b: graph.NewBuilder()} }

// AddVertex appends a vertex at p (unit-square coordinates) and returns its id.
func (nb *NetworkBuilder) AddVertex(p Point) VertexID { return nb.b.AddVertex(p) }

// AddRoad adds a bidirectional road segment of the given travel cost.
func (nb *NetworkBuilder) AddRoad(u, v VertexID, cost float64) { nb.b.AddBiEdge(u, v, cost) }

// AddOneWay adds a directed segment. Note that the distance-oracle extension
// requires symmetric networks; the SILC index itself does not.
func (nb *NetworkBuilder) AddOneWay(u, v VertexID, cost float64) { nb.b.AddEdge(u, v, cost) }

// Build validates and returns the network. It fails on out-of-range
// coordinates, non-positive weights, self loops, or two vertices sharing a
// Morton grid cell (closer than 2^-16 in both coordinates).
func (nb *NetworkBuilder) Build() (*Network, error) {
	g, err := nb.b.Build()
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}
