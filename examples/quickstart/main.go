// Quickstart: build a network, precompute the SILC index, and answer
// network-distance queries — nearest neighbors, exact distances, and
// shortest paths — without any graph search at query time.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"silc"
)

func main() {
	// 1. A synthetic road network: a perturbed lattice with holes and
	// shortcuts, edge costs = road length with traffic noise.
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{
		Rows: 48, Cols: 48, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d intersections, %d road segments\n",
		net.NumVertices(), net.NumEdges()/2)

	// 2. Precompute the SILC index: one shortest-path quadtree per vertex.
	// This is the one-time cost that every later query amortizes.
	eng, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	s := eng.Stats()
	fmt.Printf("index:   %d Morton blocks (%.1f per vertex, %.2f MiB) in %v\n\n",
		s.TotalBlocks, s.BlocksPerVertex(), float64(s.TotalBytes)/(1<<20), s.BuildTime)

	// 3. Scatter some points of interest (say, coffee shops) and a query
	// location. Object sets are independent of the index: swap them freely.
	// The constructor validates every vertex id at the API edge.
	rng := rand.New(rand.NewSource(42))
	shops := make([]silc.VertexID, 30)
	for i := range shops {
		shops[i] = silc.VertexID(rng.Intn(net.NumVertices()))
	}
	objs, err := silc.NewObjectSet(net, shops)
	if err != nil {
		log.Fatal(err)
	}
	home := silc.VertexID(rng.Intn(net.NumVertices()))

	// 4. The five nearest shops by driving distance, exact. All queries go
	// through the Engine handle: context-aware, error-returning, optioned.
	ctx := context.Background()
	res, err := eng.Query(ctx, objs, home, 5, silc.WithExactDistances())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5 nearest shops to intersection %d (by network distance):\n", home)
	for i, n := range res.Neighbors {
		fmt.Printf("  %d. shop #%d at intersection %d — %.4f network, %.4f straight-line\n",
			i+1, n.ID, n.Vertex, n.Dist, net.Euclid(home, n.Vertex))
	}
	fmt.Printf("query cost: %d interval lookups, %d refinements, %v CPU\n\n",
		res.Stats.Lookups, res.Stats.Refinements, res.Stats.CPUTime)

	// 5. Exact distance and turn-by-turn path to the winner.
	best := res.Neighbors[0].Vertex
	d, err := eng.Distance(ctx, home, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distance home -> shop: %.4f\n", d)
	path, err := eng.ShortestPath(ctx, home, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("route (%d hops): %v\n", len(path)-1, path)
}
