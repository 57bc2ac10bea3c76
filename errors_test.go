package silc

import (
	"context"
	"errors"
	"math"
	"testing"
)

// engineFixtures builds one monolithic and one sharded engine over the same
// network, so every boundary-validation property is asserted on both.
func engineFixtures(t *testing.T) (*Network, []*Engine) {
	t.Helper()
	net, err := GenerateRoadNetwork(RoadNetworkOptions{Rows: 10, Cols: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Build(net, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(net, BuildOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	return net, []*Engine{mono, sharded}
}

// TestObjectSetValidation is the regression test for the boundary bug:
// NewObjectSet used to accept any VertexID and let the PMR build index out
// of bounds at query time.
func TestObjectSetValidation(t *testing.T) {
	net, _ := engineFixtures(t)
	n := net.NumVertices()

	if _, err := NewObjectSet(nil, []VertexID{0}); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil network: got %v, want ErrNilNetwork", err)
	}
	if _, err := NewObjectSet(net, nil); !errors.Is(err, ErrEmptyObjects) {
		t.Fatalf("empty vertices: got %v, want ErrEmptyObjects", err)
	}
	if _, err := NewObjectSet(net, []VertexID{0, VertexID(n)}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("vertex == n: got %v, want ErrVertexRange", err)
	}
	if _, err := NewObjectSet(net, []VertexID{-1}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("negative vertex: got %v, want ErrVertexRange", err)
	}
	if _, err := NewObjectSetFromPoints(net, nil); !errors.Is(err, ErrEmptyObjects) {
		t.Fatalf("empty points: got %v, want ErrEmptyObjects", err)
	}
	if _, err := NewObjectSet(net, []VertexID{0, 1, VertexID(n - 1)}); err != nil {
		t.Fatalf("valid vertices rejected: %v", err)
	}
}

// TestQueryValidation checks that every Engine query entry point returns
// typed errors — out-of-range vertices, k ≤ 0, nil/empty object sets, bad
// radii and epsilons — on both the monolithic and the sharded engine.
func TestQueryValidation(t *testing.T) {
	net, engines := engineFixtures(t)
	n := net.NumVertices()
	objs := mustObjects(t, net, []VertexID{0, 1, 2, 5, 9})
	ctx := context.Background()
	bad := VertexID(n + 7)

	for i, eng := range engines {
		tag := []string{"mono", "sharded"}[i]

		if _, err := eng.Query(ctx, objs, bad, 3); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("%s: Query bad q: got %v, want ErrVertexRange", tag, err)
		}
		if _, err := eng.Query(ctx, objs, 0, 0); !errors.Is(err, ErrBadK) {
			t.Fatalf("%s: Query k=0: got %v, want ErrBadK", tag, err)
		}
		if _, err := eng.Query(ctx, objs, 0, -2); !errors.Is(err, ErrBadK) {
			t.Fatalf("%s: Query k<0: got %v, want ErrBadK", tag, err)
		}
		if _, err := eng.Query(ctx, nil, 0, 3); !errors.Is(err, ErrNilObjects) {
			t.Fatalf("%s: Query nil objs: got %v, want ErrNilObjects", tag, err)
		}
		if _, err := eng.Query(ctx, &ObjectSet{}, 0, 3); !errors.Is(err, ErrNilObjects) {
			t.Fatalf("%s: Query zero-value objs: got %v, want ErrNilObjects", tag, err)
		}
		if _, err := eng.Query(ctx, objs, 0, 3, WithEpsilon(-0.5)); !errors.Is(err, ErrBadEpsilon) {
			t.Fatalf("%s: negative epsilon: got %v, want ErrBadEpsilon", tag, err)
		}
		if _, err := eng.Query(ctx, objs, 0, 3, WithEpsilon(math.NaN())); !errors.Is(err, ErrBadEpsilon) {
			t.Fatalf("%s: NaN epsilon: got %v, want ErrBadEpsilon", tag, err)
		}
		if _, err := eng.Query(ctx, objs, 0, 3, WithMaxDistance(-1)); !errors.Is(err, ErrBadRadius) {
			t.Fatalf("%s: negative max distance: got %v, want ErrBadRadius", tag, err)
		}

		if _, err := eng.Distance(ctx, bad, 0); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("%s: Distance bad src: got %v, want ErrVertexRange", tag, err)
		}
		if _, err := eng.Distance(ctx, 0, -1); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("%s: Distance bad dst: got %v, want ErrVertexRange", tag, err)
		}
		if _, err := eng.DistanceInterval(ctx, bad, 0); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("%s: DistanceInterval bad src: got %v, want ErrVertexRange", tag, err)
		}
		if _, err := eng.ShortestPath(ctx, 0, bad); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("%s: ShortestPath bad dst: got %v, want ErrVertexRange", tag, err)
		}
		if _, err := eng.IsCloser(ctx, 0, 1, bad); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("%s: IsCloser bad b: got %v, want ErrVertexRange", tag, err)
		}
		if _, err := eng.NewRefiner(bad, 0); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("%s: NewRefiner bad src: got %v, want ErrVertexRange", tag, err)
		}

		if _, err := eng.WithinDistance(ctx, objs, 0, -0.5); !errors.Is(err, ErrBadRadius) {
			t.Fatalf("%s: negative radius: got %v, want ErrBadRadius", tag, err)
		}
		if _, err := eng.WithinDistance(ctx, objs, 0, math.NaN()); !errors.Is(err, ErrBadRadius) {
			t.Fatalf("%s: NaN radius: got %v, want ErrBadRadius", tag, err)
		}

		if _, err := eng.QueryBatch(ctx, objs, []VertexID{0, bad, 1}, 2); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("%s: batch bad vertex: got %v, want ErrVertexRange", tag, err)
		}
		if _, err := eng.QueryBatch(ctx, objs, []VertexID{0, 1}, 0); !errors.Is(err, ErrBadK) {
			t.Fatalf("%s: batch k=0: got %v, want ErrBadK", tag, err)
		}

		// The iterator yields its validation error as the final element.
		var iterErr error
		for _, err := range eng.Neighbors(ctx, objs, bad) {
			iterErr = err
		}
		if !errors.Is(iterErr, ErrVertexRange) {
			t.Fatalf("%s: Neighbors bad q: got %v, want ErrVertexRange", tag, iterErr)
		}

		// Valid calls still work after all that.
		res, err := eng.Query(ctx, objs, 0, 3)
		if err != nil || len(res.Neighbors) != 3 {
			t.Fatalf("%s: valid query failed: %v (%d neighbors)", tag, err, len(res.Neighbors))
		}
	}
}
