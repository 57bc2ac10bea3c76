package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is one request of a timed window.
type sample struct {
	index int32 // position in the op sequence
	kind  opKind
	ok    bool
	end   time.Duration // completion, since the window opened
	lat   time.Duration
}

// kept is a reply body held back for the answer check after the window.
type kept struct {
	index int32
	body  []byte
	// ackID is the object id a mutation addressed or created; the check
	// replays the table with it.
	ackID int32
}

// driver sends one workload's ops over one connection and keeps the
// benchmark's view of the live world in step with the acknowledgements.
type driver struct {
	w      *workload
	c      *conn
	ops    []op
	radius float64
	table  *liveTable   // nil unless w.live
	next   int          // next op to send
	cal    *calibration // sampled between requests, when set
	alive  func() error // reports a server that has died
	failed []string     // first few failure messages
	nFail  int
}

func (d *driver) fail(format string, args ...any) {
	d.nFail++
	if len(d.failed) < 5 {
		d.failed = append(d.failed, fmt.Sprintf(format, args...))
	}
}

// step sends the next op. With keep set, the replies the workload wants
// checked outlive the call. It returns the sample and, when kept or a
// mutation, the record the check needs.
func (d *driver) step(keep bool) (sample, *kept) {
	i := d.next
	d.next++
	o := d.ops[i%len(d.ops)]
	lat, err := d.c.do(formatOp(d.w, o, d.radius, d.table))
	s := sample{index: int32(i), kind: o.kind, lat: lat, ok: err == nil}
	if err != nil {
		d.fail("op %d (%v): %v", i, o.kind, err)
		return s, nil
	}
	body := d.c.body.Bytes()
	if o.kind.isMutation() {
		id := d.table.target(o)
		ack, err := decodeReply(body)
		switch {
		case err != nil:
			d.fail("op %d (%v): %v", i, o.kind, err)
			s.ok = false
			return s, nil
		case ack.ID == nil || (o.kind != opInsert && *ack.ID != id) || ack.Version != d.table.version+1:
			d.fail("op %d (%v): ack %s, expected version %d", i, o.kind, body, d.table.version+1)
			s.ok = false
			return s, nil
		}
		d.table.apply(o, *ack.ID)
		return s, &kept{index: int32(i), ackID: *ack.ID}
	}
	if d.w.live && o.kind != opDistance && o.kind != opPath {
		// Every live read must see exactly the world the last ack announced.
		if v, ok := snapshotVersion(body); !ok || v != d.table.version {
			d.fail("op %d (%v): answered for world version %d, acks say %d", i, o.kind, v, d.table.version)
			s.ok = false
			return s, nil
		}
	}
	if keep && d.w.checks(i, o.kind) {
		return s, &kept{index: int32(i), body: append([]byte(nil), body...)}
	}
	return s, nil
}

// window is what one timed window produced.
type window struct {
	length  time.Duration // what was asked for, or longer: see runWindow
	samples []sample
	kept    []kept
	// spin is the xorshift reading taken just before and just after.
	spinBefore, spinAfter float64
	// cal holds the calibration samples taken inside the window, in µs.
	cal []float64
}

// needed is how many successful samples of a kind the percentiles a run
// reports must rest on (see percentile): a hundred for the p90 of kNN,
// twenty-one for a p50.
var needed = [numKinds]int{opKNN: 100, opRange: 21, opDistance: 21}

// runWindow drives the workload for length, closed loop, and then on, until
// limit at the latest, for as long as a kind still lacks the samples its
// percentiles need: this sandbox has minutes in which everything takes three
// times as long, cluster_router then fits fewer than a hundred kNN requests
// into its window, and a run whose answers are all right would fail on a thin
// knn_p90_ms. The request in flight when the window closes is kept for its
// latency; sliceRates leaves it out, since it did not complete inside the
// window.
func (d *driver) runWindow(length, limit time.Duration) *window {
	win := &window{length: length, samples: make([]sample, 0, 1<<16)}
	var have [numKinds]int
	thin := func() bool {
		for k, n := range needed {
			if have[k] < n && d.w.has(opKind(k)) {
				return true
			}
		}
		return false
	}
	win.spinBefore = spinReading()
	start := time.Now()
	nextCal := time.Duration(0)
	for {
		now := time.Since(start)
		if now >= length {
			if now >= limit || !thin() {
				break
			}
			win.length = now
		}
		if d.cal != nil && now >= nextCal {
			win.cal = append(win.cal, d.cal.sample())
			nextCal = now + calEvery
		}
		s, k := d.step(true)
		s.end = time.Since(start)
		win.samples = append(win.samples, s)
		if k != nil {
			win.kept = append(win.kept, *k)
		}
		if s.ok {
			have[s.kind]++
		} else if d.alive() != nil {
			break // no point in hammering a dead server; the caller reports it
		}
	}
	win.spinAfter = spinReading()
	return win
}

// calibration is a fixed piece of work the benchmark times again and again,
// between the requests of a window and around the set-ups: one full Dijkstra
// over the run's road map, on arrays and a heap of its own. For minutes at a
// time this sandbox runs pointer-chasing, branch-heavy code — which is what a
// query and an index build are — up to a third slower or faster than the
// minutes before, with no steal time and nothing else running; a register-only
// spin loop does not see it, this task does. Sets of runs of unchanged code
// then differ by 15–35% in every metric (README.md, "A/A"), more than any
// bound the benchmark may state. So every end-to-end metric is reported at
// reference speed: times are multiplied, rates divided, by the reference
// duration of the task over the median of the samples taken beside the
// measurement. The task shares no code with the servers and runs while they
// wait for the next request, so a slower server moves a reported metric
// exactly as it moves the measured one.
type calibration struct {
	o *oracle
	// reference is the task's duration, in µs, at the speed metrics are
	// reported at. It only fixes the scale.
	reference float64
}

const (
	// calEvery spaces the samples inside a window: 400 in 20 s, 1% of it.
	calEvery = 50 * time.Millisecond
	// calBurst is how many samples are taken in a row beside each set-up.
	calBurst = 30
	// calNanosPerVertex sets the reference: about what the task takes per
	// vertex on this sandbox in a fast minute.
	calNanosPerVertex = 100
)

func newCalibration(in *inputs) *calibration {
	return &calibration{o: newOracle(in.g), reference: calNanosPerVertex * float64(in.g.NumVertices()) / 1e3}
}

// sample runs the task once and returns how long it took, in µs.
func (c *calibration) sample() float64 {
	start := time.Now()
	c.o.explore(0, func(int32, float64) bool { return true })
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

// burst appends calBurst samples to samples.
func (c *calibration) burst(samples []float64) []float64 {
	for i := 0; i < calBurst; i++ {
		samples = append(samples, c.sample())
	}
	return samples
}

// factor is what a time measured beside samples is multiplied by, and a
// rate divided by, to be reported at reference speed.
func (c *calibration) factor(samples []float64) float64 {
	return c.reference / median(samples)
}

// spinReading runs a register-only xorshift loop for 200 ms and returns
// millions of iterations per second: how fast this core is right now, with
// no memory, no syscalls and no server involved.
func spinReading() float64 {
	const chunk = 1 << 20
	x := uint64(88172645463325252)
	n := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for i := 0; i < chunk; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n += chunk
	}
	spinSink = x
	return float64(n) / 1e6 / time.Since(start).Seconds()
}

var spinSink uint64

// disturbed reports whether the machine's speed moved by more than 10%
// between the two readings around a window.
func (w *window) disturbed() bool {
	return math.Abs(w.spinBefore-w.spinAfter) > 0.10*math.Min(w.spinBefore, w.spinAfter)
}

// percentile is the nearest-rank p-quantile of sorted values, refused
// (ok=false) unless at least ten samples lie beyond it on each side: a
// percentile resting on fewer is one request's luck.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 || rank-1 < 10 {
		return sorted[rank-1], false
	}
	return sorted[rank-1], true
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

const windowSlices = 10

// sliceRates cuts the window into ten equal windowSlices and returns the requests
// completed per second in each.
func (w *window) sliceRates() []float64 {
	counts := make([]float64, windowSlices)
	width := w.length / windowSlices
	for _, s := range w.samples {
		if i := int(s.end / width); s.ok && i < windowSlices {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return counts
}

// latencies returns the sorted latencies, in ms, of the successful samples
// that match.
func (w *window) latencies(match func(opKind) bool) []float64 {
	var out []float64
	for _, s := range w.samples {
		if s.ok && match(s.kind) {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

func (w *window) count(kind opKind) int {
	n := 0
	for _, s := range w.samples {
		if s.kind == kind {
			n++
		}
	}
	return n
}
