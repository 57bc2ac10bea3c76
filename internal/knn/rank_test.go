package knn

import (
	"math"
	"testing"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/sssp"
)

// kthNeighbourObjects is the object draw of the benchmark's first recorded
// rank defect (benchmark/README.md, "Known defect"): 5% of the 64×64 seed-1
// road map, object i on vertex kthNeighbourObjects[i].
var kthNeighbourObjects = []graph.VertexID{
	1932, 2562, 2936, 784, 1496, 982, 1047, 3144, 3305, 2370, 1490, 770, 2564, 1349, 716, 104,
	1475, 3131, 1172, 513, 2748, 2292, 2785, 3485, 1118, 236, 2685, 362, 2371, 3616, 3055, 1081,
	1108, 134, 1738, 1456, 2473, 2258, 2385, 1494, 3359, 1391, 2391, 1465, 2032, 1260, 2707, 3023,
	1711, 2070, 1726, 3083, 1799, 2658, 1350, 872, 3077, 3575, 631, 2528, 3324, 1167, 550, 1639,
	1596, 1562, 1534, 1623, 1455, 2438, 319, 2444, 2263, 3382, 3031, 3395, 3724, 1866, 1972, 371,
	3230, 1374, 853, 1302, 1545, 3022, 3742, 2305, 1039, 818, 2095, 1300, 1776, 2613, 3326, 2888,
	1550, 2591, 3689, 1084, 989, 482, 280, 2209, 1874, 214, 2462, 1190, 457, 2933, 2030, 760,
	3051, 1805, 52, 2201, 769, 493, 225, 2737, 737, 3384, 2864, 1430, 962, 1914, 320, 3536,
	1654, 1125, 1862, 194, 1973, 2237, 3491, 1180, 1956, 1157, 3676, 2152, 3279, 2939, 751, 1630,
	2490, 2034, 3696, 1420, 3564, 2447, 444, 3369, 2202, 40, 398, 1976, 820, 1921, 260, 2643,
	1429, 706, 3344, 446, 1750, 924, 1700, 1380, 2882, 2617, 798, 1678, 2286, 2239, 2782, 1902,
	1672, 299, 127, 1312, 282, 2311, 795, 2316, 1470, 1323, 1607, 3298, 1629,
}

// TestKNNKthNeighbourRepro pins that defect: from q=46 with k=10, VariantKNN
// on the in-RAM monolithic index used to report object 105 (true distance
// 0.20695, interval [0.20382, 0.20695] when popped) at rank 10 and leave out
// object 58 at 0.20437, which had left the queue for L. Rank 10 is object 58.
func TestKNNKthNeighbourRepro(t *testing.T) {
	g, err := graph.GenerateRoadNetwork(graph.RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(g, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const q, k = 46, 10
	res := SearchSpec(ix, nil, NewObjects(g, kthNeighbourObjects), q, UnboundedSpec(k, VariantKNN))
	if len(res.Neighbors) != k {
		t.Fatalf("%d neighbours, want %d", len(res.Neighbors), k)
	}
	dist := sssp.Dijkstra(g, q).Dist
	for i, nb := range res.Neighbors {
		if nb.Object.ID == 105 {
			t.Errorf("rank %d is object 105 at %.5f: the defect is back", i+1, dist[nb.Object.Vertex])
		}
	}
	last := res.Neighbors[k-1]
	if d := dist[last.Object.Vertex]; last.Object.ID != 58 || math.Abs(d-0.20437) > 1e-5 {
		t.Fatalf("rank %d is object %d at %.5f, want object 58 at 0.20437", k, last.Object.ID, d)
	}
}
