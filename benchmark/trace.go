package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into one layer, recorded by the benchmark around
// the call. The spans of one op share its op id; parent names the span of
// the same op that stands above it in the stack the request walks.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	kind   opKind
}

func (s span) micros() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(name, parent string, opIndex int, kind opKind, start time.Time, d time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Op: opIndex, Parent: parent, Start: s, End: s + d.Nanoseconds(), kind: kind})
}

// write dumps the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// mean is the mean duration, in µs, of the spans that match, and how many.
func (t *tracer) mean(match func(span) bool) (float64, int) {
	sum, n := 0.0, 0
	for _, s := range t.spans {
		if match(s) {
			sum += s.micros()
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// median is the median duration, in µs, of the spans that match; 0 when
// none does.
func (t *tracer) median(match func(span) bool) float64 {
	var vs []float64
	for _, s := range t.spans {
		if match(s) {
			vs = append(vs, s.micros())
		}
	}
	return median(vs)
}

func named(name string) func(span) bool {
	return func(s span) bool { return s.Name == name }
}

// meanSelf is the mean, over the ops that have both, of the outer span minus
// the inner span: the outer layer's self time for that op.
func (t *tracer) meanSelf(outer, inner func(span) bool) (float64, int) {
	in := make(map[int]float64)
	for _, s := range t.spans {
		if inner(s) {
			in[s.Op] = s.micros()
		}
	}
	sum, n := 0.0, 0
	for _, s := range t.spans {
		if d, ok := in[s.Op]; ok && outer(s) {
			sum += s.micros() - d
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// traceBlock is how many ops one layer replays before the next layer
// replays the same ops, so that all layers meet the same machine phase.
const traceBlock = 100

// layerPass replays ops at one level of the stack.
type layerPass interface {
	// do executes the op and returns the span name it belongs under (empty:
	// this layer has no call for that kind), when it started and how long
	// it took.
	do(i int, o op) (name string, start time.Time, d time.Duration, err error)
	parent(kind opKind) string
}

// replay is what the traced replay of one workload produced.
type replay struct {
	tr        *tracer
	win       *window // the HTTP pass's samples and held-back replies
	respBytes int
	// Scrapes and CPU seconds of every server, the front one first, taken
	// just before and just after; the servers idle during the in-process
	// passes, so the deltas are the HTTP pass's.
	scrape0, scrape1 []promSeries
	cpu0, cpu1       []float64
}

// runReplay replays ops [first, first+n) in blocks of traceBlock through
// every pass in turn, recording a span per call.
func runReplay(s *session, in *inputs, front *httpPass, passes []layerPass, first, n int) (*replay, error) {
	r := &replay{tr: &tracer{t0: time.Now()}, win: front.win}
	var err error
	if r.scrape0, err = s.dep.scrapeAll(); err != nil {
		return nil, err
	}
	if r.cpu0, err = s.dep.cpuEach(); err != nil {
		return nil, err
	}
	for lo := first; lo < first+n; lo += traceBlock {
		hi := min(lo+traceBlock, first+n)
		// The two engine passes swap places every block, so that neither
		// always finds the caches the other left warm.
		passes[1], passes[2] = passes[2], passes[1]
		for _, p := range passes {
			for i := lo; i < hi; i++ {
				o := in.ops[i]
				name, start, d, err := p.do(i, o)
				if err != nil {
					return nil, fmt.Errorf("op %d (%v) at %T: %w", i, o.kind, p, err)
				}
				if name != "" {
					r.tr.record(name, p.parent(o.kind), i, o.kind, start, d)
				}
				if p == layerPass(front) {
					r.respBytes += s.drv.c.body.Len()
				}
			}
		}
	}
	if r.scrape1, err = s.dep.scrapeAll(); err != nil {
		return nil, err
	}
	if r.cpu1, err = s.dep.cpuEach(); err != nil {
		return nil, err
	}
	return r, s.dep.alive()
}

// runTraced is the per-layer run. It sets the deployment up once, then
// replays a fixed number of ops — so that every count repeats exactly —
// over HTTP and, in blocks of traceBlock, through in-process twins of the
// engine and of the knn layer opened on the same artifacts. The micro
// ladder follows. Nothing here is timed against a bound.
func (e *env) runTraced(ctx context.Context, w *workload, seed int64) (*outcome, error) {
	in, err := e.makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	s, err := e.setUp(ctx, w, in, filepath.Join(e.dir, "traced"))
	if err != nil {
		return nil, err
	}
	defer s.close()
	tw, err := openTwin(w, in, s.dep.image)
	if err != nil {
		return nil, err
	}
	defer tw.close()

	var before *liveTable
	if w.live {
		before = s.drv.table.clone()
	}
	front := &httpPass{drv: s.drv, win: &window{}}
	passes := []layerPass{front, tw.enginePass(true), tw.enginePass(false), tw.knnPass()}
	// The twins replay the warm-up too: their pools and live worlds must be
	// where the server's are when the traced ops begin.
	for _, p := range passes[1:] {
		for i := 0; i < w.warmupOps; i++ {
			if _, _, _, err := p.do(i, in.ops[i]); err != nil {
				return nil, fmt.Errorf("twin warm-up op %d: %w", i, err)
			}
		}
	}
	tw.knnCounts = knnCounts{} // count the traced ops only

	r, err := runReplay(s, in, front, passes, w.warmupOps, w.traceOps)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(r.win.samples), failed: s.drv.nFail, notes: s.drv.failed}
	chk, err := newChecker(w, in, s.dep.image, before)
	if err != nil {
		return nil, err
	}
	chk.report(out, w, r.win)
	e.record(out, w, in, runConfig{seed: seed, setups: 1})
	out.note("record trace_ops=%d spans=%d", w.traceOps, len(r.tr.spans))
	cal := newCalibration(in)
	out.note("record calibration reference_us=%.1f now_us=%.1f (the traced run reports as measured)", cal.reference, median(cal.burst(nil)))

	lm := newLayerMetrics(out)
	lm.set("knn.rank_defects", float64(chk.defects))
	if rss, err := s.dep.front.peakRSSMiB(); err == nil {
		lm.set("silcserve.rss_mb", rss)
	}
	if s.dep.image != "" {
		if st, err := os.Stat(s.dep.image); err == nil {
			lm.set("image_bytes_per_vertex", float64(st.Size())/float64(in.g.NumVertices()))
		}
	}
	r.fill(lm, tw.knnCounts, float64(w.traceOps))
	if w.layers["cluster"] {
		if err := rpcsPerKind(s, in, lm); err != nil {
			return nil, err
		}
	}
	if err := tw.ladder(lm, in); err != nil {
		return nil, err
	}
	lm.finishLadder(r.tr, w)

	if err := r.tr.write(filepath.Join(e.root, "benchmark", "out", "trace_"+w.name+".ndjson")); err != nil {
		return nil, err
	}
	lm.emit()
	return out, nil
}

// fill derives the per-layer metrics the replay itself yields: span means
// and self times, and the servers' counter deltas per replayed op.
func (r *replay) fill(lm *layerMetrics, kc knnCounts, ops float64) {
	tr := r.tr
	isHTTP := func(s span) bool { return s.Parent == "" }
	isEngine := func(s span) bool { return strings.HasPrefix(s.Name, "engine.") }
	mean := func(match func(span) bool) float64 { v, _ := tr.mean(match); return v }
	self := func(outer, inner func(span) bool) float64 { v, _ := tr.meanSelf(outer, inner); return v }

	lm.set("silcserve.roundtrip_us", mean(isHTTP))
	lm.set("silcserve.self_us", self(isHTTP, isEngine))
	lm.set("silcserve.resp_bytes_per_op", float64(r.respBytes)/ops)
	lm.set("batch_p50_ms", tr.median(named("silcserve.batch"))/1e3)
	lm.set("mutate_p50_ms", tr.median(func(s span) bool { return isHTTP(s) && s.kind.isMutation() })/1e3)

	for _, k := range []opKind{opKNN, opRange, opDistance} {
		lm.set("engine."+k.String()+"_us", mean(named("engine."+k.String())))
	}
	lm.set("engine.self_us", self(named("engine.knn"), named("knn.search")))
	lm.set("knn.search_us", mean(named("knn.search")))
	lm.set("knn.range_us", mean(named("knn.range")))
	if q := float64(kc.queries); q > 0 {
		lm.set("knn.refinements_per_op", float64(kc.refinements)/q)
		lm.set("knn.lookups_per_op", float64(kc.lookups)/q)
		lm.set("knn.heap_pushes_per_op", float64(kc.heapPushes)/q)
	}
	if untraced := mean(named("engine-untraced.knn")); untraced > 0 {
		lm.set("obs.trace_overhead", mean(named("engine.knn"))/untraced)
	}

	all := func(name string) float64 { return sumDelta(r.scrape0, r.scrape1, name) }
	lm.set("store.page_reads_per_op", all("silc_store_page_reads_total")/ops)
	lm.set("store.blocks_decoded_per_op", all("silc_store_blocks_decoded_total")/ops)
	hits, misses := all("silc_diskio_pool_hits_total"), all("silc_diskio_pool_misses_total")
	if hits+misses > 0 {
		lm.set("diskio.hit_rate", hits/(hits+misses))
	}
	lm.set("diskio.evictions_per_op", all("silc_diskio_pool_evictions_total")/ops)
	lm.set("partition.gateway_routes_per_op", delta(r.scrape0[0], r.scrape1[0], "silc_partition_gateway_routes_total")/ops)
	if len(r.cpu0) > 1 {
		total := 0.0
		for i := range r.cpu0 {
			total += r.cpu1[i] - r.cpu0[i]
		}
		if total > 0 {
			lm.set("cluster.router_cpu_share", (r.cpu1[0]-r.cpu0[0])/total)
		}
	}
}

// httpPass replays ops against the real deployment and holds every reply
// back for the answer check. A failed request leaves no span; the driver
// has counted it.
type httpPass struct {
	drv *driver
	win *window
}

func (p *httpPass) parent(opKind) string { return "" }

func (p *httpPass) do(i int, o op) (string, time.Time, time.Duration, error) {
	p.drv.next = i
	start := time.Now()
	s, k := p.drv.step(true)
	p.win.samples = append(p.win.samples, s)
	if k != nil {
		p.win.kept = append(p.win.kept, *k)
	}
	if !s.ok {
		return "", start, 0, nil
	}
	return "silcserve." + o.kind.String(), start, s.lat, nil
}

// scrapeAll scrapes every server, the front one first.
func (d *deployment) scrapeAll() ([]promSeries, error) {
	out := []promSeries{}
	for _, p := range d.ordered() {
		s, err := p.scrape()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// cpuEach is every server's CPU seconds so far, the front one first.
func (d *deployment) cpuEach() ([]float64, error) {
	var out []float64
	for _, p := range d.ordered() {
		s, err := p.cpuSeconds()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (d *deployment) ordered() []*proc {
	out := []*proc{d.front}
	for _, p := range d.procs {
		if p != d.front {
			out = append(out, p)
		}
	}
	return out
}

func sumDelta(before, after []promSeries, name string) float64 {
	total := 0.0
	for i := range before {
		total += delta(before[i], after[i], name)
	}
	return total
}

// rpcsPerKind sends a short burst of each read kind through the router and
// divides the router's RPC counter delta by the burst size.
func rpcsPerKind(s *session, in *inputs, lm *layerMetrics) error {
	const burst = 20
	for _, kind := range []opKind{opKNN, opRange, opDistance} {
		before, err := s.dep.front.scrape()
		if err != nil {
			return err
		}
		sent := 0
		for i := 0; sent < burst && i < len(in.ops); i++ {
			if in.ops[i].kind != kind {
				continue
			}
			if _, err := s.drv.c.do(formatOp(s.drv.w, in.ops[i], in.radius, nil)); err != nil {
				return err
			}
			sent++
		}
		after, err := s.dep.front.scrape()
		if err != nil {
			return err
		}
		lm.set("cluster.rpcs_per_"+kind.String(), delta(before, after, "silc_cluster_rpcs_total")/float64(sent))
	}
	return nil
}
