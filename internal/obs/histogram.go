package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

const (
	// histMinShift is log2 of the first bucket's upper bound in
	// nanoseconds: every observation ≤ 2^10 ns = 1.024µs lands in
	// bucket 0. Warm in-RAM queries sit a few buckets above this.
	histMinShift = 10
	// HistBuckets is the number of finite buckets. Bucket i covers
	// (2^(histMinShift+i-1), 2^(histMinShift+i)] nanoseconds, so the
	// top finite bound is 2^37 ns ≈ 137 s; anything slower only counts
	// toward the implicit +Inf bucket.
	HistBuckets = 28
)

// Histogram is a fixed-size latency histogram with power-of-two
// nanosecond buckets. Observe is lock-free and allocation-free: the
// bucket index is bits.Len64 on the duration (a branch-free log2 —
// no search), and buckets, count, and sum are independent atomics.
// Concurrent scrapes may therefore see a bucket increment before the
// matching count increment; counters are monotone, so the tear is
// bounded and self-heals by the next scrape.
type Histogram struct {
	name    string
	labels  string
	help    string
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [HistBuckets]atomic.Int64
}

// Histogram registers a latency histogram family (name_bucket/_sum/
// _count). Exported bucket bounds and sum are in seconds, per
// Prometheus convention.
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	h := &Histogram{name: name, labels: labels, help: help}
	r.add(h)
	return h
}

// bucketIndex maps n nanoseconds to its bucket; indexes ≥ HistBuckets
// mean "above the top finite bound" (only count/sum record it).
func bucketIndex(n int64) int {
	if n <= 1 {
		return 0
	}
	// Upper bounds are inclusive: n = 2^k exactly belongs to the
	// bucket bounded by 2^k, hence Len64(n-1).
	i := bits.Len64(uint64(n-1)) - histMinShift
	if i < 0 {
		return 0
	}
	return i
}

// bucketBounds returns bucket i's half-open range (lo, hi] in
// nanoseconds; bucket 0's lo is 0.
func bucketBounds(i int) (lo, hi int64) {
	hi = 1 << (histMinShift + i)
	if i > 0 {
		lo = 1 << (histMinShift + i - 1)
	}
	return lo, hi
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	h.count.Add(1)
	h.sum.Add(n)
	if i := bucketIndex(n); i < HistBuckets {
		h.buckets[i].Add(1)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the log-spaced bucket that contains it, so the
// estimate's relative error is bounded by the bucket width (a factor
// of two). Observations above the top finite bound clamp to it.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		b := h.buckets[i].Load()
		if b == 0 {
			continue
		}
		if float64(cum)+float64(b) >= target {
			lo, hi := bucketBounds(i)
			frac := (target - float64(cum)) / float64(b)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += b
	}
	_, top := bucketBounds(HistBuckets - 1)
	return time.Duration(top)
}

func (h *Histogram) familyName() string { return h.name }
func (h *Histogram) familyType() string { return "histogram" }
func (h *Histogram) familyHelp() string { return h.help }

func (h *Histogram) writeSeries(w io.Writer) error {
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		cum += h.buckets[i].Load()
		_, hi := bucketBounds(i)
		le := strconv.FormatFloat(float64(hi)/1e9, 'g', -1, 64)
		if err := h.writeBucket(w, le, cum); err != nil {
			return err
		}
	}
	if err := h.writeBucket(w, "+Inf", h.count.Load()); err != nil {
		return err
	}
	if err := seriesHead(w, h.name+"_sum", h.labels); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, " %s\n", formatFloat(float64(h.sum.Load())/1e9)); err != nil {
		return err
	}
	if err := seriesHead(w, h.name+"_count", h.labels); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, " %d\n", h.count.Load())
	return err
}

func (h *Histogram) writeBucket(w io.Writer, le string, v int64) error {
	var err error
	if h.labels == "" {
		_, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, le, v)
	} else {
		_, err = fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", h.name, h.labels, le, v)
	}
	return err
}
