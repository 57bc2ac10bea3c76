package bench

import (
	"runtime"
	"strings"
	"testing"
)

func TestThroughputSweepReplaysWholeWorkload(t *testing.T) {
	env := smallEnv(t)
	w := env.NewThroughputWorkload(40, 0.2, 3, 5)
	points, err := ThroughputSweep(env.Cold, w, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Queries != 40 {
			t.Fatalf("queries = %d", p.Queries)
		}
		if p.QPS <= 0 || p.Wall <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		if p.PageHits+p.PageMisses == 0 {
			t.Fatal("disk-resident sweep should report pool traffic")
		}
	}
	if points[0].Speedup != 1.0 {
		t.Fatalf("base speedup = %v", points[0].Speedup)
	}
	table := ThroughputTable("t", points)
	if !strings.Contains(table, "QPS") || len(strings.Split(strings.TrimSpace(table), "\n")) != 4 {
		t.Fatalf("table:\n%s", table)
	}
}

// TestThroughputScalesWithGoroutines is the acceptance check that parallel
// QPS beats single-goroutine QPS on a shared disk-resident index. Margins
// stay loose: the point is "sharding unlocked parallelism", not a precise
// speedup figure.
func TestThroughputScalesWithGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput scaling check skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs >= 4 CPUs to demonstrate scaling")
	}
	env, err := NewEnv(48, 48, DefaultSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	w := env.NewThroughputWorkload(600, 0.05, 10, 9)
	// Best of two sweeps guards against scheduler noise on loaded CI boxes.
	best := 0.0
	for try := 0; try < 2; try++ {
		points, err := ThroughputSweep(env.Cold, w, []int{1, 4})
		if err != nil {
			t.Fatal(err)
		}
		if s := points[1].Speedup; s > best {
			best = s
		}
		if best >= 1.3 {
			break
		}
	}
	if best < 1.15 {
		t.Fatalf("4-goroutine speedup = %.2fx; parallel querying should beat single-goroutine", best)
	}
}
