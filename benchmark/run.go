package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"silc"
)

// metric is one named number of a run. n is the sample count behind a
// percentile or rate (0 where that has no meaning); na marks a percentile
// that had fewer than ten samples beyond it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	na    bool
}

// outcome is what one run reports.
type outcome struct {
	attempted int
	failed    int
	metrics   []metric
	notes     []string // failure messages and the run record, printed above the result
}

func (o *outcome) add(name string, value float64, unit string, n int) {
	o.metrics = append(o.metrics, metric{name: name, value: value, unit: unit, n: n})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// correct is the run's verdict: every op answered, every checked answer
// right, every percentile resting on enough samples.
func (o *outcome) correct() bool {
	for _, m := range o.metrics {
		if m.na {
			return false
		}
	}
	return o.failed == 0 && o.attempted > 0
}

// runConfig is the part of a run the command line decides.
type runConfig struct {
	seed    int64
	window  time.Duration
	setups  int  // set-ups per run; setup_s is their median
	lenient bool // smoke: a thin percentile does not fail the run
}

// session is one deployment warmed up and ready to measure, with the client
// state that goes with it.
type session struct {
	dep *deployment
	drv *driver
}

func (s *session) close() {
	s.drv.c.close()
	s.dep.stop()
}

// setUp deploys the workload into dir and replays the warm-up prefix. The
// time it takes is one setup_s reading.
func (e *env) setUp(ctx context.Context, w *workload, in *inputs, dir string) (*session, error) {
	dep, err := e.deploy(ctx, w, in, dir)
	if err != nil {
		return nil, err
	}
	drv := &driver{w: w, c: newConn(dep.front.url), ops: in.ops, radius: in.radius, alive: dep.alive}
	if w.live {
		drv.table = newLiveTable(in.objects)
	}
	s := &session{dep: dep, drv: drv}
	for i := 0; i < w.warmupOps; i++ {
		drv.step(false)
	}
	if err := dep.alive(); err != nil {
		s.close()
		return nil, err
	}
	if drv.nFail > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %d ops failed, first: %s", drv.nFail, drv.failed[0])
	}
	return s, nil
}

// runEndToEnd is the untraced run: set up cfg.setups times, measure one
// window on the last deployment, check the answers, report the end-to-end
// metrics.
func (e *env) runEndToEnd(ctx context.Context, w *workload, cfg runConfig) (*outcome, error) {
	in, err := e.makeInputs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	var (
		s      *session
		setups []float64
	)
	cal := newCalibration(in)
	setupCal := cal.burst(nil)
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		if s, err = e.setUp(ctx, w, in, filepath.Join(e.dir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		setupCal = cal.burst(setupCal)
	}
	defer s.close()
	s.drv.cal = cal

	var before *liveTable
	if w.live {
		before = s.drv.table.clone()
	}
	cpu0, err := s.dep.cpuSeconds()
	if err != nil {
		return nil, err
	}
	limit := 2 * cfg.window
	if cfg.lenient {
		limit = cfg.window
	}
	win := s.drv.runWindow(cfg.window, limit)
	if err := s.dep.alive(); err != nil {
		return nil, err
	}
	cpu1, err := s.dep.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := s.dep.front.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	out := &outcome{attempted: len(win.samples), failed: s.drv.nFail, notes: s.drv.failed}
	chk, err := newChecker(w, in, s.dep.image, before)
	if err != nil {
		return nil, err
	}
	chk.report(out, w, win)

	e.record(out, w, in, cfg)
	win.record(out)
	out.note("extra rss_mb=%.1f (front server VmHWM)", rss)
	if s.dep.image != "" {
		if st, err := os.Stat(s.dep.image); err == nil {
			out.note("extra image_bytes_per_vertex=%.2f", float64(st.Size())/float64(in.g.NumVertices()))
		}
	}

	ok := 0
	for _, smp := range win.samples {
		if smp.ok {
			ok++
		}
	}
	// Every metric is reported at reference speed (see calibration).
	atSetup, atWindow := cal.factor(setupCal), cal.factor(win.cal)
	out.note("record calibration reference_us=%.1f beside_setups_us=%.1f n=%d in_window_us=%.1f n=%d",
		cal.reference, median(setupCal), len(setupCal), median(win.cal), len(win.cal))
	out.note("record reported = measured × %.4f for setup_s, × %.4f for the other times, ÷ %.4f for qps", atSetup, atWindow, atWindow)
	out.note("record setups_s %.3f", setups)
	out.add("setup_s", median(setups)*atSetup, "s", len(setups))
	out.add("qps", median(win.sliceRates())/atWindow, "1/s", ok)
	pct := func(p float64, match func(opKind) bool) (v float64, n int, enough bool) {
		lats := win.latencies(match)
		v, enough = percentile(lats, p)
		return v * atWindow, len(lats), enough
	}
	latency := func(name string, p float64, kind opKind) {
		v, n, enough := pct(p, kind.is)
		out.metrics = append(out.metrics, metric{name: name, value: v, unit: "ms", n: n, na: !enough && !cfg.lenient})
	}
	latency("knn_p50_ms", 0.50, opKNN)
	latency("knn_p90_ms", 0.90, opKNN)
	latency("range_p50_ms", 0.50, opRange)
	latency("distance_p50_ms", 0.50, opDistance)
	if ok > 0 {
		out.add("server_cpu_ms_per_op", (cpu1-cpu0)*1000/float64(ok)*atWindow, "ms", ok)
	}
	// The two workload-specific latencies are per-layer metrics in
	// BENCHMARK.json (an end-to-end metric must exist on every workload);
	// the untraced run still prints them, from the full window.
	if v, n, _ := pct(0.50, opBatch.is); n > 0 {
		out.note("extra batch_p50_ms=%.4f n=%d", v, n)
	}
	if v, n, _ := pct(0.50, opKind.isMutation); n > 0 {
		out.note("extra mutate_p50_ms=%.4f n=%d", v, n)
	}
	return out, nil
}

// record writes the run record: everything needed to tell two runs apart.
func (e *env) record(out *outcome, w *workload, in *inputs, cfg runConfig) {
	out.note("record workload=%s seed=%d commit=%s go=%s nproc=%d gomaxprocs=%d gogc=%s",
		w.name, cfg.seed, e.commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), envOr("GOGC", "default"))
	out.note("record vertices=%d edges=%d objects=%d window_s=%g setups=%d warmup_ops=%d radius=%g",
		in.g.NumVertices(), in.g.NumEdges(), len(in.objects), cfg.window.Seconds(), cfg.setups, w.warmupOps, in.radius)
}

// record adds what the window itself has to say to the run record.
func (win *window) record(out *outcome) {
	var kinds []string
	for k := opKind(0); k < numKinds; k++ {
		if n := win.count(k); n > 0 {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
		}
	}
	out.note("record ops %s", strings.Join(kinds, " "))
	state := "steady"
	if win.disturbed() {
		state = "disturbed"
	}
	out.note("record slice_qps %.0f over %.1f s", win.sliceRates(), win.length.Seconds())
	out.note("record spin_before=%.1f spin_after=%.1f Miter/s machine=%s", win.spinBefore, win.spinAfter, state)
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

// commit names the code under test; the driver's checkout is not a git
// repository, and then there is nothing to name.
func (e *env) commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}

// checker validates the replies a window held back, in op order, replaying
// the live table alongside so every read meets the world it was served from.
type checker struct {
	in    *inputs
	table *liveTable   // live workloads: the world as the window opened
	objs  *objects     // the object table reads are checked against
	ref   *silc.Engine // exact workloads: the same image, in-process
	refOb *silc.ObjectSet
	// Of the knnResults kNN results checked (a batch holds 64), defects
	// were excused as rank defects; defectNotes describes the first few.
	knnResults  int
	defects     int
	defectNotes []string
}

func newChecker(w *workload, in *inputs, image string, table *liveTable) (*checker, error) {
	c := &checker{in: in, table: table, objs: newObjects(in.objects, in.g.NumVertices())}
	if table != nil {
		c.objs = newObjects(table.vertexOf, in.g.NumVertices())
	}
	if w.exact {
		var err error
		if c.ref, err = silc.OpenEngine(image, nil, silc.BuildOptions{}); err != nil {
			return nil, fmt.Errorf("open %s in-process: %w", image, err)
		}
		if c.refOb, err = silc.NewObjectSet(c.ref.Network(), vertexIDs(in.objects)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *checker) close() {
	if c.ref != nil {
		c.ref.Close()
	}
}

// defectFloor is how many rank defects any run may have whatever its length:
// a smoke or traced run checks a few hundred kNN results, and a share of so
// few is decided by one or two unlucky queries.
const defectFloor = 5

// run checks every kept reply and marks the samples of wrong ones as failed,
// so a wrong answer also misses every latency metric.
func (c *checker) run(w *workload, win *window) []string {
	var msgs []string
	if len(win.samples) == 0 {
		return nil
	}
	first := win.samples[0].index
	var excused []int32 // samples whose reply had only a rank defect
	for _, k := range win.kept {
		o := c.in.ops[int(k.index)%len(c.in.ops)]
		if k.body == nil {
			c.objs.apply(c.table, o, k.ackID)
			continue
		}
		switch o.kind {
		case opKNN:
			c.knnResults++
		case opBatch:
			c.knnResults += len(o.batch)
		}
		r, err := decodeReply(k.body)
		if err == nil {
			err = c.in.oracle.check(c.objs, o, c.in.radius, r)
		}
		if err == nil && c.ref != nil {
			err = c.sameAsReference(o, r)
		}
		// At the commit this benchmark was written against, kNN now and then
		// reports one object that is farther than the true k-th. Such
		// replies are counted apart from failed ops, up to the workload's
		// cap, or no workload could be measured at all; a fix drives the
		// count to zero. See README.md, "Known defect".
		var rank *rankError
		if errors.As(err, &rank) {
			c.defects += rank.n
			excused = append(excused, k.index)
			if len(c.defectNotes) < 3 {
				c.defectNotes = append(c.defectNotes, fmt.Sprintf("defect op %d: %v", k.index, err))
			}
			continue
		}
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("op %d (%v): wrong answer: %v", k.index, o.kind, err))
			win.samples[k.index-first].ok = false
		}
	}
	if c.defects > defectFloor && float64(c.defects) > w.defectCap*float64(c.knnResults) {
		for _, i := range excused {
			msgs = append(msgs, fmt.Sprintf("op %d: wrong answer: one of %d rank defects in %d kNN results, and the workload excuses %.2g%%",
				i, c.defects, c.knnResults, 100*w.defectCap))
			win.samples[i-first].ok = false
		}
	}
	return msgs
}

// report runs the check and enters its verdict into out: one failed op per
// message.
func (c *checker) report(out *outcome, w *workload, win *window) {
	for _, msg := range c.run(w, win) {
		out.failed++
		if len(out.notes) < 10 {
			out.note("%s", msg)
		}
	}
	c.close()
	out.notes = append(out.notes, c.defectNotes...)
	out.note("extra knn_rank_defects=%d of %d checked kNN results, cap %.2g%% (see README.md, Known defect)",
		c.defects, c.knnResults, 100*w.defectCap)
}

// sameAsReference compares an exact=1 reply bit for bit with the in-process
// engine's answer over the same index file.
func (c *checker) sameAsReference(o op, r *reply) error {
	ctx := context.Background()
	switch o.kind {
	case opKNN, opRange:
		var want silc.Result
		var err error
		if o.kind == opKNN {
			want, err = c.ref.Query(ctx, c.refOb, silc.VertexID(o.a), knnK, silc.WithExactDistances())
		} else {
			want, err = c.ref.WithinDistance(ctx, c.refOb, silc.VertexID(o.a), c.in.radius, silc.WithExactDistances())
		}
		if err != nil {
			return fmt.Errorf("reference engine: %w", err)
		}
		mismatch := error(nil)
		if len(want.Neighbors) != len(r.Neighbors) {
			mismatch = fmt.Errorf("%d neighbors, in-process engine has %d", len(r.Neighbors), len(want.Neighbors))
		}
		for i := 0; mismatch == nil && i < len(want.Neighbors); i++ {
			got, nb := r.Neighbors[i], want.Neighbors[i]
			if got.ID != nb.ID || math.Float64bits(got.Dist) != math.Float64bits(nb.Dist) {
				mismatch = fmt.Errorf("neighbor %d is (id %d, %v), in-process engine has (id %d, %v)", i, got.ID, got.Dist, nb.ID, nb.Dist)
			}
		}
		if mismatch == nil {
			return nil
		}
		// The reply has passed the oracle. If the reference's own answer
		// does not, the reference has the rank defect, not the deployment.
		ref := &reply{Sorted: want.Sorted}
		for _, nb := range want.Neighbors {
			ref.Neighbors = append(ref.Neighbors, neighbor{ID: nb.ID, Vertex: int32(nb.Vertex), Dist: nb.Dist, Exact: nb.Exact})
		}
		var rank *rankError
		if o.kind == opKNN && errors.As(c.in.oracle.checkKNN(c.objs, o.a, knnK, ref), &rank) {
			return &rankError{"in-process reference: " + rank.msg, 1}
		}
		return mismatch
	case opDistance:
		want, err := c.ref.Distance(ctx, silc.VertexID(o.a), silc.VertexID(o.b))
		if err != nil {
			return fmt.Errorf("reference engine: %w", err)
		}
		if math.Float64bits(want) != math.Float64bits(r.Distance) {
			return fmt.Errorf("distance %v, in-process engine has %v", r.Distance, want)
		}
	}
	return nil
}
