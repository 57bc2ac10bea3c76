// Command benchmark measures silcserve the way a client sees it: it builds
// netgen, silcbuild and silcserve from the checkout, starts the real server
// processes of one of four deployments, drives them over one loopback HTTP
// connection, checks the answers against a Dijkstra oracle, and prints every
// metric by name with its unit. See README.md beside this file.
//
//	go run . -workload warm_ram -seed 1            # one end-to-end run
//	go run . -workload warm_ram -seed 1 -trace 1   # the per-layer run
//	go run . -list                                 # workload names
//	go run . -smoke                                # all four, tiny, <20 s
//	go run . -aa 3                                 # A/A table over 3 sets
//	go run . -spec -seconds 20 > ../BENCHMARK.json # the contract, from the tables here
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

const (
	// defaultSide is the lattice side of the common network: about 3.8k
	// vertices, a 1.3 s monolithic build on this sandbox.
	defaultSide = 64
	smokeSide   = 24
	// setupsPerRun is how many times one run sets its deployment up;
	// setup_s is the median.
	setupsPerRun = 3
	// hardLimit ends a run that would otherwise outlast the driver's
	// patience, after stopping every child.
	hardLimit = 170 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 1, "seed for the network, the objects and the op sequence")
		seconds = flag.Int("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = the traced run that prints the per-layer metrics")
		list    = flag.Bool("list", false, "print the workload names and exit")
		smoke   = flag.Bool("smoke", false, "run all four workloads on a 24×24 network with 2 s windows")
		aaSets  = flag.Int("aa", 0, "A/A mode: run the whole workload list this many times and compare set medians")
		root    = flag.String("root", "..", "checkout root to build the servers from")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as this program defines it and exit")
	)
	flag.Parse()
	if *spec {
		printSpec(*seconds)
		return
	}
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n", w.name, w.why)
		}
		return
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		os.Exit(report(err))
	}
	if *aaSets > 0 {
		os.Exit(runAA(rootAbs, *aaSets, *seconds))
	}

	os.Exit(runOne(rootAbs, *name, *seed, *seconds, *trace != 0, *smoke))
}

// runOne is a single benchmark process: the smoke run, or one workload's
// end-to-end or traced run. It returns the exit code; every path out of it,
// a signal and the hard limit included, stops the servers and removes the
// scratch directory first.
func runOne(root, name string, seed int64, seconds int, traced, smoke bool) int {
	e, cleanup, err := newEnv(root)
	if err != nil {
		return report(err)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	limit := hardLimit
	if smoke {
		limit = 2 * hardLimit
	}
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "benchmark: %v: stopping servers\n", s)
		case <-time.After(limit):
			fmt.Fprintf(os.Stderr, "benchmark: still running after %v: stopping servers\n", limit)
		}
		cleanup()
		os.Exit(3)
	}()

	ctx := context.Background()
	todo, cfg := workloads, smokeConfig(seed)
	if smoke {
		e.side = smokeSide
	} else {
		w := workloadByName(name)
		if w == nil {
			return report(fmt.Errorf("unknown workload %q (try -list)", name))
		}
		todo = []*workload{w}
		cfg = runConfig{seed: seed, window: time.Duration(seconds) * time.Second, setups: setupsPerRun}
	}
	code := 0
	for _, w := range todo {
		var out *outcome
		if traced {
			out, err = e.runTraced(ctx, w, seed)
		} else {
			out, err = e.runEndToEnd(ctx, w, cfg)
		}
		if err != nil {
			return report(fmt.Errorf("%s: %w", w.name, err))
		}
		out.print(os.Stdout)
		if !out.correct() {
			code = 1
		}
	}
	return code
}

// report prints a set-up or usage error; such a run has no result line.
func report(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// printSpec writes BENCHMARK.json from the program's own tables, so the two
// cannot drift apart.
func printSpec(runSeconds int) {
	type workloadSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricSpec struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadSpec{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		spec.EndToEnd = append(spec.EndToEnd, metricSpec{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, metricSpec{d.name, d.unit, d.better, nil})
	}
	out, _ := json.MarshalIndent(spec, "", "  ")
	fmt.Printf("%s\n", out)
}

// smokeConfig is the -smoke run: one set-up, a 2 s window, answers checked,
// thin percentiles tolerated.
func smokeConfig(seed int64) runConfig {
	return runConfig{seed: seed, window: 2 * time.Second, setups: 1, lenient: true}
}

// newEnv builds the tools and makes the scratch directory, both under
// .bench_build in the checkout so nothing is written outside it. cleanup
// stops every child and removes the scratch directory.
func newEnv(root string) (*env, func(), error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "silcserve")); err != nil {
		return nil, nil, fmt.Errorf("%s is not a silc checkout: %w", root, err)
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin"), side: defaultSide}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, nil, err
	}
	if err := buildTools(root, e.bin); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, nil, err
	}
	e.dir = dir
	return e, func() {
		stopAll()
		os.RemoveAll(dir)
	}, nil
}

// print writes the notes, then one line per metric, then the result object
// the driver reads from the last line.
func (o *outcome) print(f *os.File) {
	for _, n := range o.notes {
		fmt.Fprintln(f, n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(o.metrics))
	for _, m := range o.metrics {
		value := fmt.Sprintf("%.6g", m.value)
		if m.na {
			value = "n/a"
		}
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf(" n=%d", m.n)
		}
		fmt.Fprintf(f, "metric %-34s %12s %s%s\n", m.name, value, m.unit, samples)
		metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	fmt.Fprintf(f, "ops=%d failed=%d\n", o.attempted, o.failed)
	line, _ := json.Marshal(map[string]any{
		"correct":   o.correct(),
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(f, "%s\n", line)
}
