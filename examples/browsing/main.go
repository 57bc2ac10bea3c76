// Distance browsing: the paper's headline capability. The Engine.Neighbors
// iterator streams objects in increasing network distance, paying only
// incremental cost per additional neighbor — the pattern behind "show me
// more results" in a mapping service; breaking out of the loop abandons the
// remaining work, and an ε option trades rank exactness for fewer
// refinements. The example also traces progressive refinement, the
// mechanism that lets the stream rank objects without computing exact
// distances it never needs.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"silc"
)

func main() {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{
		Rows: 40, Cols: 40, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	restaurants := make([]silc.VertexID, 60)
	for i := range restaurants {
		restaurants[i] = silc.VertexID(rng.Intn(net.NumVertices()))
	}
	objs, err := silc.NewObjectSet(net, restaurants)
	if err != nil {
		log.Fatal(err)
	}
	q := silc.VertexID(rng.Intn(net.NumVertices()))
	ctx := context.Background()

	// The first ten restaurants, streamed lazily: the iterator performs
	// only the incremental search each additional neighbor needs, and
	// breaking out of the loop abandons the rest.
	fmt.Printf("browsing restaurants from intersection %d:\n", q)
	shown := 0
	for n, err := range eng.Neighbors(ctx, objs, q) {
		if err != nil {
			log.Fatal(err)
		}
		if shown == 5 {
			// The user clicked "more": the stream continues where it
			// stopped — no recomputation of the first page.
			fmt.Println("  --- more ---")
		}
		fmt.Printf("  %2d. restaurant #%2d  %.4f away\n", shown+1, n.ID, n.Dist)
		if shown++; shown == 10 {
			break
		}
	}

	// ε-approximate browsing: certify each rank only to within (1+ε),
	// trading a bounded distance error for fewer refinements.
	fmt.Println("\nsame stream with ε = 0.25 (distances certified within 1.25×):")
	shown = 0
	for n, err := range eng.Neighbors(ctx, objs, q, silc.WithEpsilon(0.25)) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d. restaurant #%2d  ~%.4f away  [%.4f, %.4f]\n",
			shown+1, n.ID, n.Dist, n.Interval.Lo, n.Interval.Hi)
		if shown++; shown == 5 {
			break
		}
	}

	// Under the hood: progressive refinement. Watch an interval tighten
	// hop by hop until exact.
	dest := restaurants[0]
	fmt.Printf("\nprogressive refinement of distance(%d, %d):\n", q, dest)
	r, err := eng.NewRefiner(q, dest)
	if err != nil {
		log.Fatal(err)
	}
	iv := r.Interval()
	fmt.Printf("  lookup:  [%.4f, %.4f]  width %.4f\n", iv.Lo, iv.Hi, iv.Hi-iv.Lo)
	for !r.Done() {
		r.Step()
		if err := r.Err(); err != nil {
			log.Fatal(err)
		}
		iv = r.Interval()
		if r.Steps()%5 == 0 || r.Done() {
			fmt.Printf("  step %2d: [%.4f, %.4f]  width %.4f\n",
				r.Steps(), iv.Lo, iv.Hi, iv.Hi-iv.Lo)
		}
	}
	fmt.Printf("exact after %d refinements: %.4f\n", r.Steps(), iv.Lo)

	// Distance comparison without exact distances: most comparisons
	// resolve after a handful of refinements.
	a, b := restaurants[1], restaurants[2]
	closer, err := eng.IsCloser(ctx, q, a, b)
	if err != nil {
		log.Fatal(err)
	}
	da, _ := eng.Distance(ctx, q, a)
	db, _ := eng.Distance(ctx, q, b)
	fmt.Printf("\nis #1 closer than #2 from %d? %v (exact: %.4f vs %.4f)\n",
		q, closer, da, db)
}
