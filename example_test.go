package silc_test

import (
	"context"
	"fmt"
	"log"

	"silc"
)

// ExampleEngine_Neighbors demonstrates incremental distance browsing
// through the iterator API: neighbors stream out in increasing network
// distance, each one costing only the incremental search it needs, and
// breaking out of the loop abandons the rest of the work.
func ExampleEngine_Neighbors() {
	net, err := silc.GenerateGrid(6, 6)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// Three shops on the lattice; browse from the top-left corner.
	objs, err := silc.NewObjectSet(net, []silc.VertexID{7, 14, 35})
	if err != nil {
		log.Fatal(err)
	}

	shown := 0
	for n, err := range eng.Neighbors(context.Background(), objs, 0) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rank %d: object %d at vertex %d, distance %.2f\n",
			shown+1, n.ID, n.Vertex, n.Dist)
		if shown++; shown == 2 {
			break // the third-nearest shop is never computed
		}
	}
	// Output:
	// rank 1: object 0 at vertex 7, distance 0.29
	// rank 2: object 1 at vertex 14, distance 0.57
}
