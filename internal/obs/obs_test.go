package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", `op="x"`, "ops")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter value = %d, want 42", got)
	}
	g := r.Gauge("test_depth", "", "depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge value = %d, want 4", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total ops\n",
		"# TYPE test_ops_total counter\n",
		`test_ops_total{op="x"} 42` + "\n",
		"# TYPE test_depth gauge\n",
		"test_depth 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCounterScaled(t *testing.T) {
	r := NewRegistry()
	c := r.CounterScaled("test_seconds_total", "", "nanos as seconds", 1e-9)
	c.Add(1_500_000_000) // 1.5s in nanos
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "test_seconds_total 1.5\n") {
		t.Fatalf("scaled counter not exported as seconds:\n%s", b.String())
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.CounterFunc("test_func_total", "", "closure counter", func() float64 { return v })
	r.GaugeFunc("test_func_gauge", `k="v"`, "closure gauge", func() float64 { return 2.5 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "test_func_total 3\n") {
		t.Errorf("func counter missing integer form:\n%s", out)
	}
	if !strings.Contains(out, `test_func_gauge{k="v"} 2.5`+"\n") {
		t.Errorf("func gauge missing:\n%s", out)
	}
}

// TestFamilyGrouping checks that series of one family registered out of
// order still share a single HELP/TYPE header — the text format rejects
// repeated headers.
func TestFamilyGrouping(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_fam_total", `op="a"`, "fam")
	r.Counter("test_other_total", "", "other")
	bc := r.Counter("test_fam_total", `op="b"`, "fam")
	a.Add(1)
	bc.Add(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "# TYPE test_fam_total counter"); n != 1 {
		t.Fatalf("family header written %d times, want 1:\n%s", n, out)
	}
	// Both series must appear contiguously after the single header.
	i := strings.Index(out, "# TYPE test_fam_total counter")
	j := strings.Index(out, "# TYPE test_other_total counter")
	ai := strings.Index(out, `test_fam_total{op="a"} 1`)
	bi := strings.Index(out, `test_fam_total{op="b"} 2`)
	if ai < i || bi < i || (j > i && (ai > j || bi > j)) {
		t.Fatalf("family series not grouped under their header:\n%s", out)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		nanos int64
		want  int
	}{
		{0, 0},
		{1, 0},
		{1023, 0},
		{1024, 0}, // 2^10 is bucket 0's inclusive upper bound
		{1025, 1}, // first value of bucket 1
		{2048, 1}, // 2^11 inclusive
		{2049, 2},
		{1 << 37, HistBuckets - 1},   // top finite bound, inclusive
		{(1 << 37) + 1, HistBuckets}, // above: +Inf only
	}
	for _, c := range cases {
		if got := bucketIndex(c.nanos); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.nanos, got, c.want)
		}
	}
	for i := 0; i < HistBuckets; i++ {
		lo, hi := bucketBounds(i)
		if bucketIndex(hi) != i {
			t.Errorf("bound %d: bucketIndex(hi=%d) = %d, want %d", i, hi, bucketIndex(hi), i)
		}
		if lo > 0 && bucketIndex(lo+1) != i {
			t.Errorf("bound %d: bucketIndex(lo+1=%d) = %d, want %d", i, lo+1, bucketIndex(lo+1), i)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "", "latency")
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(3 * time.Microsecond)  // 3000ns -> bucket 2 (2048,4096]
	h.Observe(200 * time.Second)     // above top finite bound
	h.Observe(-time.Second)          // clamped to 0 -> bucket 0
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	wantSum := 500*time.Nanosecond + 3*time.Microsecond + 200*time.Second
	if got := time.Duration(h.sum.Load()); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{le="1.024e-06"} 2` + "\n", // bucket 0 cumulative
		`test_latency_seconds_bucket{le="4.096e-06"} 3` + "\n", // through bucket 2
		`test_latency_seconds_bucket{le="+Inf"} 4` + "\n",      // +Inf = count
		"test_latency_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative (monotone in le order): the top finite
	// bucket holds everything except the 200s outlier.
	if !strings.Contains(out, `test_latency_seconds_bucket{le="137.438953472"} 3`+"\n") {
		t.Errorf("top finite bucket should exclude the +Inf-only outlier:\n%s", out)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_q_seconds", "", "q")
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 100 observations all in bucket (2048, 4096].
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Microsecond)
	}
	p50 := h.Quantile(0.5)
	lo, hi := time.Duration(2048), time.Duration(4096)
	if p50 <= lo || p50 > hi {
		t.Fatalf("p50 = %v, want within (%v, %v]", p50, lo, hi)
	}
	if p99, p10 := h.Quantile(0.99), h.Quantile(0.10); p99 < p10 {
		t.Fatalf("quantiles not monotone: p99=%v < p10=%v", p99, p10)
	}
	// Out-of-range q clamps rather than panicking.
	if h.Quantile(-1) > h.Quantile(2) {
		t.Fatal("clamped quantiles out of order")
	}
	// Observations above the top finite bound clamp to it.
	h2 := r.Histogram("test_q2_seconds", "", "q2")
	h2.Observe(500 * time.Second)
	_, top := bucketBounds(HistBuckets - 1)
	if got := h2.Quantile(0.99); got != time.Duration(top) {
		t.Fatalf("over-top quantile = %v, want clamp to %v", got, time.Duration(top))
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines and
// checks the exact count and sum afterwards — run under -race this also
// proves Observe is safe without locks.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc_seconds", "", "concurrent")
	c := r.Counter("test_conc_total", "", "concurrent counter")
	const (
		goroutines = 8
		perG       = 10_000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Spread observations across buckets deterministically.
				h.Observe(time.Duration(1+(g*perG+i)%100_000) * time.Microsecond)
				c.Inc()
				if i%64 == 0 {
					// Concurrent scrapes must not block or race recording.
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}()
	}
	wg.Wait()
	const total = goroutines * perG
	if got := h.Count(); got != total {
		t.Fatalf("count = %d, want %d", got, total)
	}
	if got := c.Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	var wantSum int64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			wantSum += int64(1+(g*perG+i)%100_000) * 1000
		}
	}
	if got := h.sum.Load(); got != wantSum {
		t.Fatalf("sum = %d, want %d", got, wantSum)
	}
	// Finite buckets + anything above the top bound must equal count.
	var finite int64
	for i := 0; i < HistBuckets; i++ {
		finite += h.buckets[i].Load()
	}
	if finite != total { // 100ms max observation is well under 137s
		t.Fatalf("finite bucket total = %d, want %d", finite, total)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{42, "42"},
		{-3, "-3"},
		{1.5, "1.5"},
		{0.000001024, "1.024e-06"},
	}
	for _, c := range cases {
		if got := formatFloat(c.v); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
