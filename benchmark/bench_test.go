package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestGenOpsIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := encodeOps(genOps(w, 7, 4000, 3771))
		b := encodeOps(genOps(w, 7, 4000, 3771))
		c := encodeOps(genOps(w, 8, 4000, 3771))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two sequences from seed 7 differ", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w.name)
		}
	}
}

func TestGenOpsKeepsTheMix(t *testing.T) {
	for _, w := range workloads {
		want := make(map[opKind]int)
		for _, k := range w.mix {
			want[k]++
		}
		ops := genOps(w, 3, 10*len(w.mix), 1000)
		got := make(map[opKind]int)
		for _, o := range ops {
			got[o.kind]++
			if o.kind == opBatch && len(o.batch) != batchSize {
				t.Fatalf("%s: batch of %d queries", w.name, len(o.batch))
			}
		}
		for k, n := range want {
			if got[k] != 10*n {
				t.Errorf("%s: %d %v ops in ten periods, want %d", w.name, got[k], k, 10*n)
			}
		}
		if w.live {
			for i, o := range ops {
				if (i%5 == 0) != o.kind.isMutation() {
					t.Fatalf("%s: op %d is %v; mutations lead each cycle of five and appear nowhere else", w.name, i, o.kind)
				}
			}
		}
	}
}

func TestLiveTableFollowsAcks(t *testing.T) {
	tb := newLiveTable([]int32{10, 20, 30})
	if tb.version != 3 {
		t.Fatalf("seeded version %d, want 3 (one per insert)", tb.version)
	}
	tb.apply(op{kind: opInsert, b: 40}, 3)
	tb.apply(op{kind: opMove, a: 1, b: 21}, tb.target(op{a: 1}))
	del := op{kind: opDelete, a: 0}
	tb.apply(del, tb.target(del))
	if got, want := tb.vertexOf, []int32{-1, 21, 30, 40}; !slices.Equal(got, want) {
		t.Errorf("vertexOf = %v, want %v", got, want)
	}
	if got, want := tb.ids, []int32{3, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("ids = %v, want %v", got, want)
	}
	if tb.version != 6 {
		t.Errorf("version %d after three mutations, want 6", tb.version)
	}
}

func TestPercentile(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if v, ok := percentile(vals, 0.50); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v (ok %v), want 50", v, ok)
	}
	if v, ok := percentile(vals, 0.90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v (ok %v), want 90 with exactly ten samples beyond", v, ok)
	}
	if _, ok := percentile(vals[:99], 0.90); ok {
		t.Error("p90 of 99 samples has nine samples beyond it and must be refused")
	}
	if _, ok := percentile(vals[:19], 0.50); ok {
		t.Error("p50 of 19 samples must be refused")
	}
	if _, ok := percentile(nil, 0.50); ok {
		t.Error("a percentile of nothing must be refused")
	}
	// needed is the fewest samples each reported percentile accepts.
	for kind, p := range map[opKind]float64{opKNN: 0.90, opRange: 0.50, opDistance: 0.50} {
		_, enough := percentile(vals[:needed[kind]], p)
		_, tooFew := percentile(vals[:needed[kind]-1], p)
		if !enough || tooFew {
			t.Errorf("%v: needed says %d samples for p%.0f, percentile disagrees", kind, needed[kind], 100*p)
		}
	}
}

func TestSliceRatesAndMedian(t *testing.T) {
	w := &window{length: 10 * time.Second}
	// Slice i completes i+1 requests, except slice 9, whose extra request
	// fails; one request ends after the window and belongs to no slice.
	for i := 0; i < windowSlices; i++ {
		for j := 0; j <= i; j++ {
			w.samples = append(w.samples, sample{ok: true, end: time.Duration(i)*time.Second + time.Duration(j+1)*time.Millisecond})
		}
	}
	w.samples = append(w.samples, sample{ok: false, end: 9500 * time.Millisecond})
	w.samples = append(w.samples, sample{ok: true, end: 10001 * time.Millisecond})
	rates := w.sliceRates()
	for i, r := range rates {
		if r != float64(i+1) {
			t.Errorf("slice %d: %v requests/s, want %d", i, r, i+1)
		}
	}
	if m := median(rates); m != 5.5 {
		t.Errorf("median slice rate %v, want 5.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of three = %v, want 2", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and a parenthesis, as the kernel prints it.
	line := "4242 (silc serve) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 766 0 0 20 0 9 0 100 200 300\n"
	got, err := parseProcStat(line)
	if err != nil || got != 20.0 {
		t.Errorf("cpu seconds = %v, %v; want 20 (1234+766 ticks)", got, err)
	}
	if _, err := parseProcStat("4242 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line must be an error")
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("a stat line without a command name must be an error")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsilcserve\nVmPeak:\t 1826948 kB\nVmHWM:\t  104960 kB\nVmRSS:\t   90000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 102.5 {
		t.Errorf("VmHWM = %v MiB, %v; want 102.5", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("a status text without VmHWM must be an error")
	}
}

func TestParsePromText(t *testing.T) {
	text := `# HELP silc_engine_queries_total Queries.
# TYPE silc_engine_queries_total counter
silc_engine_queries_total{op="knn"} 12
silc_engine_queries_total{op="range"} 3
silc_engine_query_seconds_sum{op="knn"} 0.001708305
silc_diskio_pool_hits_total 129

silc_diskio_pool_hits_totally_different 7
`
	s, err := parsePromText(text)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.family("silc_engine_queries_total"); v != 15 {
		t.Errorf("queries family = %v, want 15", v)
	}
	if v := s.family("silc_diskio_pool_hits_total"); v != 129 {
		t.Errorf("hits family = %v, want 129 (a longer name must not match)", v)
	}
	if v := s[`silc_engine_query_seconds_sum{op="knn"}`]; math.Abs(v-0.001708305) > 1e-15 {
		t.Errorf("seconds sum = %v", v)
	}
	after, _ := parsePromText("silc_diskio_pool_hits_total 140\n")
	if d := delta(s, after, "silc_diskio_pool_hits_total"); d != 11 {
		t.Errorf("delta = %v, want 11", d)
	}
	if _, err := parsePromText("name_without_value\n"); err == nil {
		t.Error("a line without a value must be an error")
	}
}

func TestSnapshotVersion(t *testing.T) {
	body := []byte("{\n  \"stats\": {\n    \"cpu_time_us\": 12,\n    \"snapshot_version\": 1234\n  }\n}\n")
	if v, ok := snapshotVersion(body); !ok || v != 1234 {
		t.Errorf("snapshotVersion = %v, %v; want 1234", v, ok)
	}
	if _, ok := snapshotVersion([]byte(`{"stats":{}}`)); ok {
		t.Error("a reply without the field must report so")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the same
// workloads, the same metrics with the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}

// TestSmoke is the -smoke path: every workload end to end on a 24×24
// network with a 2 s window, real server processes, answer check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real servers")
	}
	start := time.Now()
	e, cleanup, err := newEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	e.side = smokeSide
	for _, w := range workloads {
		out, err := e.runEndToEnd(context.Background(), w, smokeConfig(1))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !out.correct() {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, out.failed, out.attempted, out.notes)
		}
		if len(out.metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(out.metrics), len(endToEnd))
		}
		for _, m := range out.metrics {
			if m.value <= 0 {
				t.Errorf("%s: %s = %v; an end-to-end metric is never 0", w.name, m.name, m.value)
			}
		}
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("smoke took %v, want under 20 s", took)
	}
	live.mu.Lock()
	left := len(live.procs)
	live.mu.Unlock()
	if left != 0 {
		t.Errorf("%d child processes still registered after the runs", left)
	}
}
