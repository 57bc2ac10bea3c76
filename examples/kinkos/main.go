// The paper's motivating scenario (its "find the closest Kinko's" example):
// ranking stores by straight-line ("as the crow flies") distance gives a
// different — and wrong — answer than ranking by travel distance along the
// road network.
//
// This example builds a river town with a single bridge at its south end.
// The print shop directly across the river is a stone's throw away on the
// map, but reaching it means driving the whole riverbank twice. The SILC
// index produces the exact network ranking; the geodesic ranking misleads,
// exactly as in the paper's Pittsburgh figure (error: +26 miles).
package main

import (
	"context"
	"fmt"
	"log"

	"silc"
)

const (
	bankCols = 6  // street columns per river bank
	bankRows = 10 // street rows
)

// buildRiverTown constructs two street grids separated by a river, joined by
// one bridge at the southern end. Road costs are street lengths.
func buildRiverTown() (*silc.Network, func(bank, row, col int) silc.VertexID, error) {
	nb := silc.NewNetworkBuilder()
	ids := make([][2][]silc.VertexID, bankRows)
	xAt := func(bank, col int) float64 {
		if bank == 0 {
			return 0.05 + 0.074*float64(col) // west bank: x in [0.05, 0.42]
		}
		return 0.58 + 0.074*float64(col) // east bank: x in [0.58, 0.95]
	}
	for r := 0; r < bankRows; r++ {
		for bank := 0; bank < 2; bank++ {
			ids[r][bank] = make([]silc.VertexID, bankCols)
			for c := 0; c < bankCols; c++ {
				ids[r][bank][c] = nb.AddVertex(silc.Point{
					X: xAt(bank, c),
					Y: 0.05 + 0.1*float64(r),
				})
			}
		}
	}
	at := func(bank, row, col int) silc.VertexID { return ids[row][bank][col] }
	// Streets within each bank.
	for r := 0; r < bankRows; r++ {
		for bank := 0; bank < 2; bank++ {
			for c := 0; c < bankCols; c++ {
				if c+1 < bankCols {
					nb.AddRoad(at(bank, r, c), at(bank, r, c+1), 0.074)
				}
				if r+1 < bankRows {
					nb.AddRoad(at(bank, r, c), at(bank, r+1, c), 0.1)
				}
			}
		}
	}
	// The single bridge, at the south end (row 0).
	nb.AddRoad(at(0, 0, bankCols-1), at(1, 0, 0), 0.16)
	net, err := nb.Build()
	return net, at, err
}

func main() {
	net, at, err := buildRiverTown()
	if err != nil {
		log.Fatal(err)
	}
	eng, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The customer: a piano store on the west bank, north, by the river.
	piano := at(0, 8, 5)

	// Five print shops, named as in the paper.
	names := []string{"Oakland", "Downtown", "North Hills", "Greentree", "Monroeville"}
	shopVertices := []silc.VertexID{
		at(1, 8, 0), // Oakland: just across the river — but no bridge here
		at(0, 5, 3), // Downtown: same bank, mid-town
		at(0, 9, 1), // North Hills: same bank, north-west
		at(1, 2, 3), // Greentree: east bank, south — near the bridge
		at(0, 0, 0), // Monroeville: same bank, far south-west corner
	}
	objs, err := silc.NewObjectSet(net, shopVertices)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	roadDist := func(v silc.VertexID) float64 {
		d, err := eng.Distance(ctx, piano, v)
		if err != nil {
			log.Fatal(err)
		}
		return d
	}

	fmt.Printf("river town: %d intersections, one bridge; query: piano store at %d\n\n",
		net.NumVertices(), piano)

	// Geodesic ranking (what a naive map service shows).
	geo := objs.NearestEuclidean(net.Point(piano), len(names))
	fmt.Println("ranking by straight-line distance (\"as the crow flies\"):")
	for i, id := range geo {
		v := objs.Vertex(id)
		fmt.Printf("  %d. %-12s %.3f straight-line, %.3f by road\n",
			i+1, names[id], net.Point(piano).Dist(net.Point(v)), roadDist(v))
	}

	// Network ranking (exact, via the SILC index).
	res, err := eng.Query(ctx, objs, piano, len(names), silc.WithExactDistances())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nranking by network distance (SILC):")
	for i, n := range res.Neighbors {
		fmt.Printf("  %d. %-12s %.3f by road\n", i+1, names[n.ID], n.Dist)
	}

	geoBest := objs.Vertex(geo[0])
	netBest := res.Neighbors[0]
	if geoBest != netBest.Vertex {
		extra := roadDist(geoBest) - netBest.Dist
		fmt.Printf("\nthe geodesic ranking sends the customer to %s; the true closest is %s.\n",
			names[geo[0]], names[netBest.ID])
		fmt.Printf("extra driving distance: %.3f (%.0fx the best route — the paper's \"+26 miles\")\n",
			extra, roadDist(geoBest)/netBest.Dist)
	}

	// The route across the bridge, retrieved hop by hop from the quadtrees.
	path, err := eng.ShortestPath(ctx, piano, objs.Vertex(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nroute to Oakland crosses the bridge: %d hops for a %.3f crow-fly gap\n",
		len(path)-1, net.Point(piano).Dist(net.Point(objs.Vertex(0))))

	// The paper's comparison primitive, answered by progressive refinement.
	closer, err := eng.IsCloser(ctx, piano, shopVertices[1], shopVertices[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IsCloser(Downtown vs Oakland): %v\n", closer)
}
