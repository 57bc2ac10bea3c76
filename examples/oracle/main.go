// The path-coherent-pair distance oracle: the "Path Coherence Beyond SILC"
// idea from the paper's discussion. Far-apart regions of a road network
// share their shortest-path structure (everyone driving northeast-to-
// northwest takes the same interstate), so one representative distance per
// region pair answers millions of queries within a chosen relative error.
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
		Rows: 32, Cols: 32, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := silc.Build(net, silc.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	n := net.NumVertices()
	fmt.Printf("network: %d vertices (%d vertex pairs)\n\n", n, n*n)

	for _, eps := range []float64{0.5, 0.25, 0.1} {
		o, err := silc.BuildDistanceOracle(eng, eps)
		if err != nil {
			log.Fatal(err)
		}

		// Measure the worst observed error over random queries.
		rng := rand.New(rand.NewSource(1))
		worst := 0.0
		trials := 2000
		for i := 0; i < trials; i++ {
			u := silc.VertexID(rng.Intn(n))
			v := silc.VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			exact, err := eng.Distance(ctx, u, v)
			if err != nil {
				log.Fatal(err)
			}
			approx := o.Distance(u, v)
			if rel := abs(approx-exact) / exact; rel > worst {
				worst = rel
			}
		}
		fmt.Printf("eps=%.2f: %6d pairs (%5.1f%% of n^2), %7.1f KiB, worst error %.1f%% over %d queries\n",
			eps, o.NumPairs(), 100*float64(o.NumPairs())/float64(n*n),
			float64(o.SizeBytes())/1024, 100*worst, trials)
	}

	fmt.Println("\neach stored pair is a PCP dumbbell: every source in region A reaches")
	fmt.Println("every destination in region B through shared shortest-path structure,")
	fmt.Println("so one representative distance serves the whole A x B block.")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
