package silc

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"silc/internal/sssp"
	"silc/internal/testkit"
)

// approxFixture is one generator family instantiated small enough for
// Floyd-Warshall ground truth.
type approxFixture struct {
	name string
	net  *Network
}

func approxFixtures(t *testing.T) []approxFixture {
	t.Helper()
	road, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 11, Cols: 11, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := GenerateGrid(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := GenerateRingRadial(5, 14, 7)
	if err != nil {
		t.Fatal(err)
	}
	return []approxFixture{{"road", road}, {"grid", grid}, {"ring", ring}}
}

// TestEpsilonApproximationBound is the ε property test: on every generator
// family and on both engines, every neighbor reported under WithEpsilon(ε)
// carries a distance within (1+ε)× of the Floyd-Warshall ground truth —
// both per pair (reported ≤ true ≤ (1+ε)·reported) and per rank (the i-th
// reported neighbor's true distance ≤ (1+ε) × the true i-th-nearest
// distance) — and total refinement work drops monotonically as ε grows.
func TestEpsilonApproximationBound(t *testing.T) {
	epsilons := []float64{0, 0.05, 0.25, 1.0, 4.0}
	const k = 8

	for _, fx := range approxFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			net := fx.net
			n := net.NumVertices()
			truth := testkit.FloydWarshall(net.g)

			rng := rand.New(rand.NewSource(9))
			perm := rng.Perm(n)
			vertices := make([]VertexID, n/4+2)
			for i := range vertices {
				vertices[i] = VertexID(perm[i])
			}
			objs := mustObjects(t, net, vertices)

			// True sorted object distances per query, for the rank bound.
			queries := make([]VertexID, 12)
			for i := range queries {
				queries[i] = VertexID(rng.Intn(n))
			}

			mono, err := Build(net, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := Build(net, BuildOptions{Partitions: 4})
			if err != nil {
				t.Fatal(err)
			}

			for _, tc := range []struct {
				tag string
				eng *Engine
			}{{"mono", mono}, {"sharded", sharded}} {
				prevRefs := math.MaxInt64
				for _, eps := range epsilons {
					totalRefs := 0
					for _, q := range queries {
						res, err := tc.eng.Query(context.Background(), objs, q, k, WithEpsilon(eps))
						if err != nil {
							t.Fatal(err)
						}
						if len(res.Neighbors) != k {
							t.Fatalf("%s ε=%v q=%d: %d neighbors, want %d", tc.tag, eps, q, len(res.Neighbors), k)
						}
						totalRefs += res.Stats.Refinements

						// Per-pair bounds. Tolerance matches the index's
						// storage precision: Morton blocks keep λ bounds as
						// float32, so even "exact" interval collapses carry
						// ~1e-7 relative noise against float64
						// Floyd-Warshall. ε = 0 promises exact ranking with
						// an interval containing the truth (Dist is its
						// lower bound); ε > 0 additionally promises
						// reported ≤ true ≤ (1+ε)·reported.
						for _, nb := range res.Neighbors {
							want := truth[q][nb.Vertex]
							tol := 1e-6 * (1 + want)
							if nb.Dist > want+tol {
								t.Fatalf("%s ε=%v q=%d: reported %v exceeds truth %v for vertex %d",
									tc.tag, eps, q, nb.Dist, want, nb.Vertex)
							}
							if nb.Interval.Hi < want-tol {
								t.Fatalf("%s ε=%v q=%d: interval [%v,%v] misses truth %v for vertex %d",
									tc.tag, eps, q, nb.Interval.Lo, nb.Interval.Hi, want, nb.Vertex)
							}
							if eps > 0 && want > (1+eps)*nb.Dist+tol {
								t.Fatalf("%s ε=%v q=%d: truth %v exceeds (1+ε)·reported %v for vertex %d",
									tc.tag, eps, q, want, (1+eps)*nb.Dist, nb.Vertex)
							}
						}

						// Rank bound: the i-th report's true distance is within
						// (1+ε)× of the true i-th nearest object distance
						// (exact match of the sorted prefix at ε = 0).
						sorted := make([]float64, 0, objs.Len())
						for id := int32(0); id < int32(objs.Len()); id++ {
							sorted = append(sorted, truth[q][objs.Vertex(id)])
						}
						sortFloats(sorted)
						for i, nb := range res.Neighbors {
							trueAtPair := truth[q][nb.Vertex]
							tol := 1e-6 * (1 + sorted[i])
							if trueAtPair > (1+eps)*sorted[i]+tol {
								t.Fatalf("%s ε=%v q=%d rank %d: true %v exceeds (1+ε)×%v",
									tc.tag, eps, q, i, trueAtPair, sorted[i])
							}
						}
					}
					// Refinement work decreases monotonically across the
					// ε > 0 ladder. (ε = 0 is a different contract — exact
					// ranks certified by interval separation alone — so it
					// is excluded from the chain.)
					if eps > 0 {
						if totalRefs > prevRefs {
							t.Fatalf("%s: refinements increased from %d to %d as ε grew to %v",
								tc.tag, prevRefs, totalRefs, eps)
						}
						prevRefs = totalRefs
					}
				}
			}
		})
	}
}

// TestEpsilonNeighborsStream checks the ε bound through the iterator
// surface, including that ε = 0 streams exact distances.
func TestEpsilonNeighborsStream(t *testing.T) {
	net, engines := engineFixtures(t)
	truth := testkit.FloydWarshall(net.g)
	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 30)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	objs := mustObjects(t, net, vertices)
	q := VertexID(perm[35])

	for i, eng := range engines {
		tag := []string{"mono", "sharded"}[i]
		for _, eps := range []float64{0, 0.3} {
			count, prev := 0, -1.0
			for nb, err := range eng.Neighbors(context.Background(), objs, q, WithEpsilon(eps)) {
				if err != nil {
					t.Fatalf("%s ε=%v: %v", tag, eps, err)
				}
				want := truth[q][nb.Vertex]
				tol := 1e-9 * (1 + want)
				if eps == 0 {
					if !nb.Exact || math.Abs(nb.Dist-want) > tol {
						t.Fatalf("%s ε=0: dist %v (exact=%v) vs truth %v", tag, nb.Dist, nb.Exact, want)
					}
				} else if nb.Dist > want+tol || want > (1+eps)*nb.Dist+tol {
					t.Fatalf("%s ε=%v: dist %v outside [%v/(1+ε), %v]", tag, eps, nb.Dist, want, want)
				}
				if nb.Dist < prev {
					t.Fatalf("%s ε=%v: stream not ascending (%v after %v)", tag, eps, nb.Dist, prev)
				}
				prev = nb.Dist
				count++
			}
			if count != objs.Len() {
				t.Fatalf("%s ε=%v: streamed %d of %d objects", tag, eps, count, objs.Len())
			}
		}
	}
}

// TestHybridMaxDistance cross-checks WithMaxDistance against the range
// query and ground truth: up to k neighbors, every one within the bound,
// and none missing while closer eligible objects exist.
func TestHybridMaxDistance(t *testing.T) {
	net, engines := engineFixtures(t)
	truth := testkit.FloydWarshall(net.g)
	rng := rand.New(rand.NewSource(13))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 40)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	objs := mustObjects(t, net, vertices)
	ctx := context.Background()

	for i, eng := range engines {
		tag := []string{"mono", "sharded"}[i]
		for _, q := range []VertexID{VertexID(perm[41]), VertexID(perm[42])} {
			for _, radius := range []float64{0.15, 0.4, 0.8} {
				for _, method := range []Method{MethodKNN, MethodINN, MethodINE} {
					const k = 6
					res, err := eng.Query(ctx, objs, q, k,
						WithMethod(method), WithMaxDistance(radius), WithExactDistances())
					if err != nil {
						t.Fatal(err)
					}
					// Ground truth: object distances ≤ radius, ascending.
					var want []float64
					for id := int32(0); id < int32(objs.Len()); id++ {
						if d := truth[q][objs.Vertex(id)]; d <= radius {
							want = append(want, d)
						}
					}
					sortFloats(want)
					if len(want) > k {
						want = want[:k]
					}
					if len(res.Neighbors) != len(want) {
						t.Fatalf("%s %s q=%d r=%v: %d neighbors, want %d",
							tag, method, q, radius, len(res.Neighbors), len(want))
					}
					for i, nb := range res.Neighbors {
						if nb.Dist > radius+1e-9 {
							t.Fatalf("%s %s: neighbor beyond bound: %v > %v", tag, method, nb.Dist, radius)
						}
						if math.Abs(nb.Dist-want[i]) > 1e-9*(1+want[i]) {
							t.Fatalf("%s %s rank %d: dist %v, want %v", tag, method, i, nb.Dist, want[i])
						}
					}
				}
			}
		}
	}
}

// TestMaxDistanceZeroIsARealBound locks in that WithMaxDistance(0) bounds
// results to distance exactly 0 (objects co-located with the query),
// consistent with WithinDistance's radius semantics — not "unbounded".
func TestMaxDistanceZeroIsARealBound(t *testing.T) {
	net, engines := engineFixtures(t)
	objs := mustObjects(t, net, []VertexID{4, 4, 28, 60})
	ctx := context.Background()
	for i, eng := range engines {
		tag := []string{"mono", "sharded"}[i]
		res, err := eng.Query(ctx, objs, 4, 4, WithMaxDistance(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) != 2 {
			t.Fatalf("%s: %d neighbors at distance 0 from vertex 4, want the 2 co-located objects", tag, len(res.Neighbors))
		}
		for _, nb := range res.Neighbors {
			if nb.Dist != 0 || nb.Vertex != 4 {
				t.Fatalf("%s: unexpected neighbor %+v under a zero bound", tag, nb)
			}
		}
		// From a vertex hosting no object, a zero bound matches nothing.
		res, err = eng.Query(ctx, objs, 5, 4, WithMaxDistance(0))
		if err != nil || len(res.Neighbors) != 0 {
			t.Fatalf("%s: zero bound from objectless vertex: %v, %d neighbors", tag, err, len(res.Neighbors))
		}
	}
}

// TestQueryCancellation checks that a cancelled context surfaces promptly
// from every entry point, with ctx.Err() as the error.
func TestQueryCancellation(t *testing.T) {
	net, engines := engineFixtures(t)
	rng := rand.New(rand.NewSource(17))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 30)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	objs := mustObjects(t, net, vertices)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for i, eng := range engines {
		tag := []string{"mono", "sharded"}[i]

		if _, err := eng.Query(cancelled, objs, 0, 5); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Query on cancelled ctx: %v", tag, err)
		}
		if _, err := eng.Distance(cancelled, 0, VertexID(net.NumVertices()-1)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Distance on cancelled ctx: %v", tag, err)
		}
		if _, err := eng.WithinDistance(cancelled, objs, 0, 0.5); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: WithinDistance on cancelled ctx: %v", tag, err)
		}
		if _, err := eng.QueryBatch(cancelled, objs, []VertexID{0, 1, 2}, 3); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: QueryBatch on cancelled ctx: %v", tag, err)
		}
		if _, err := eng.IsCloser(cancelled, 0, 1, 2); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: IsCloser on cancelled ctx: %v", tag, err)
		}
	}
}

// TestNeighborsMidStreamCancellation cancels a live browse after the third
// neighbor: the very next iteration must end the stream with ctx.Err() —
// cancellation lands within one refinement step, so no further neighbors
// appear.
func TestNeighborsMidStreamCancellation(t *testing.T) {
	net, engines := engineFixtures(t)
	rng := rand.New(rand.NewSource(23))
	perm := rng.Perm(net.NumVertices())
	vertices := make([]VertexID, 40)
	for i := range vertices {
		vertices[i] = VertexID(perm[i])
	}
	objs := mustObjects(t, net, vertices)

	for i, eng := range engines {
		tag := []string{"mono", "sharded"}[i]
		ctx, cancel := context.WithCancel(context.Background())
		yielded, afterCancel := 0, 0
		var finalErr error
		for nb, err := range eng.Neighbors(ctx, objs, VertexID(perm[45])) {
			if err != nil {
				finalErr = err
				break
			}
			_ = nb
			yielded++
			if yielded == 3 {
				cancel()
			} else if yielded > 3 {
				afterCancel++
			}
		}
		cancel()
		if yielded < 3 {
			t.Fatalf("%s: only %d neighbors before cancel", tag, yielded)
		}
		if afterCancel > 0 {
			t.Fatalf("%s: %d neighbors yielded after cancellation", tag, afterCancel)
		}
		if !errors.Is(finalErr, context.Canceled) {
			t.Fatalf("%s: stream ended with %v, want context.Canceled", tag, finalErr)
		}
	}
}

// TestBrowserCancellation exercises the cursor form (iter.Pull2 over
// Neighbors): after cancellation the next pull yields ctx's error as the
// stream's final element.
func TestBrowserCancellation(t *testing.T) {
	net, engines := engineFixtures(t)
	objs := mustObjects(t, net, []VertexID{2, 9, 17, 33, 50, 61})

	for i, eng := range engines {
		tag := []string{"mono", "sharded"}[i]
		ctx, cancel := context.WithCancel(context.Background())
		next, stop := iter.Pull2(eng.Neighbors(ctx, objs, 0))
		if _, err, ok := next(); !ok || err != nil {
			t.Fatalf("%s: first pull failed: %v", tag, err)
		}
		cancel()
		if _, err, ok := next(); !ok || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pull after cancel = (%v, %v), want context.Canceled", tag, err, ok)
		}
		if _, _, ok := next(); ok {
			t.Fatalf("%s: stream continued past its error", tag)
		}
		stop()
	}
}

// TestEpsilonZeroMatchesExact locks in that WithEpsilon(0) is byte-for-byte
// the exact query.
func TestEpsilonZeroMatchesExact(t *testing.T) {
	net, engines := engineFixtures(t)
	objs := mustObjects(t, net, []VertexID{1, 8, 21, 34, 55, 72, 89})
	ctx := context.Background()
	for i, eng := range engines {
		tag := []string{"mono", "sharded"}[i]
		plain, err := eng.Query(ctx, objs, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		eps0, err := eng.Query(ctx, objs, 3, 4, WithEpsilon(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.Neighbors) != len(eps0.Neighbors) {
			t.Fatalf("%s: result sizes differ", tag)
		}
		for i := range plain.Neighbors {
			if plain.Neighbors[i].ID != eps0.Neighbors[i].ID ||
				plain.Neighbors[i].Dist != eps0.Neighbors[i].Dist {
				t.Fatalf("%s: ε=0 differs from exact at %d: %+v vs %+v",
					tag, i, plain.Neighbors[i], eps0.Neighbors[i])
			}
		}
	}
}

// TestEpsilonCertificates checks WithEpsilon on Distance and WithinDistance
// against Dijkstra on four engines over one road map: monolithic and 4-cell
// in RAM, and both paged behind a 5% pool. At ε ∈ {0.1, 0.25} every
// distance d satisfies d ≤ true ≤ (1+ε)·d, and every range answer at
// radius r (0 among them) holds every object within r and none beyond
// (1+ε)·r. At ε = 0 each call returns the bits of the same call without the
// option.
func TestEpsilonCertificates(t *testing.T) {
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 16, Cols: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := net.NumVertices()
	rng := rand.New(rand.NewSource(5))
	vertices := make([]VertexID, n/2)
	for i, v := range rng.Perm(n)[:len(vertices)] {
		vertices[i] = VertexID(v)
	}
	objs := mustObjects(t, net, vertices)
	sources := make([]VertexID, 12)
	truth := make([][]float64, len(sources))
	for i := range sources {
		sources[i] = VertexID(rng.Intn(n))
		truth[i] = sssp.Dijkstra(net.g, sources[i]).Dist
	}
	engines := map[string]*Engine{}
	for _, parts := range []int{1, 4} {
		eng, err := Build(net, BuildOptions{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ix.silcpg")
		if _, err := eng.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		paged, err := OpenEngine(path, nil, BuildOptions{CacheFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { paged.Close() })
		engines[fmt.Sprintf("P=%d/ram", parts)] = eng
		engines[fmt.Sprintf("P=%d/paged", parts)] = paged
	}

	ctx := context.Background()
	for name, eng := range engines {
		for i, u := range sources {
			for v := VertexID(0); int(v) < n; v += 5 {
				want := truth[i][v]
				tol := 1e-6 * (1 + want)
				exact, err := eng.Distance(ctx, u, v)
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range []float64{0, 0.1, 0.25} {
					d, err := eng.Distance(ctx, u, v, WithEpsilon(eps))
					if err != nil {
						t.Fatal(err)
					}
					if eps == 0 && math.Float64bits(d) != math.Float64bits(exact) {
						t.Fatalf("%s: d(%d,%d) = %v at ε=0, %v without the option", name, u, v, d, exact)
					}
					if d > want+tol || want > (1+eps)*d+tol {
						t.Fatalf("%s ε=%v: d(%d,%d) = %v, Dijkstra %v", name, eps, u, v, d, want)
					}
				}
			}
			for _, radius := range []float64{0, 0.15, 0.35} {
				exact, err := eng.WithinDistance(ctx, objs, u, radius)
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range []float64{0, 0.1, 0.25} {
					res, err := eng.WithinDistance(ctx, objs, u, radius, WithEpsilon(eps))
					if err != nil {
						t.Fatal(err)
					}
					if eps == 0 && (!reflect.DeepEqual(res.Neighbors, exact.Neighbors) || res.Stats.Refinements != exact.Stats.Refinements) {
						t.Fatalf("%s: range(%d, %v) at ε=0 differs from the call without the option", name, u, radius)
					}
					in := make(map[int32]bool, len(res.Neighbors))
					for _, nb := range res.Neighbors {
						in[nb.ID] = true
					}
					for id := int32(0); int(id) < objs.Len(); id++ {
						d := truth[i][objs.Vertex(id)]
						tol := 1e-6 * (1 + d)
						if d <= radius-tol && !in[id] || d > (1+eps)*radius+tol && in[id] {
							t.Fatalf("%s ε=%v: range(%d, %v) reports object %d at distance %v: %v", name, eps, u, radius, id, d, in[id])
						}
					}
				}
			}
		}
	}
}
