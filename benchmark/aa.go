package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// quartiles returns the first and third quartile of values the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver judges spreads with.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

// aaRuns is how many runs, on seeds 1..aaRuns, make one workload's share of
// an A/A set.
const aaRuns = 5

// runAA runs every workload aaRuns times in each of `sets` sets, each run a
// fresh process of this same binary on unchanged code, and prints per metric
// × workload the set medians, the largest relative difference between them,
// the quartile spread of all the runs, the bound these two ask for (see
// endToEnd) and the bound the program has, flagged where it is too narrow.
func runAA(root string, sets, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		return report(err)
	}
	// values[workload][metric][set] = that set's readings.
	values := make(map[string]map[string][][]float64)
	for _, w := range workloads {
		values[w.name] = make(map[string][][]float64)
		for _, d := range endToEnd {
			values[w.name][d.name] = make([][]float64, sets)
		}
	}
	var failed []string
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			for run := 1; run <= aaRuns; run++ {
				cmd := exec.Command(self, "-root", root, "-workload", w.name,
					"-seed", strconv.Itoa(run), "-seconds", strconv.Itoa(seconds))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					// A failed run has no readings; the table goes on
					// without it and says so.
					fmt.Fprintf(os.Stderr, "aa: set %d %s seed %d: %v\n%s", set+1, w.name, run, err, out)
					failed = append(failed, fmt.Sprintf("set %d %s seed %d", set+1, w.name, run))
					continue
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res struct {
					Correct bool `json:"correct"`
					Metrics map[string]struct {
						Value float64 `json:"value"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "aa: set %d %s seed %d: bad result (%v)\n%s", set+1, w.name, run, err, out)
					return 1
				}
				for name, m := range res.Metrics {
					values[w.name][name][set] = append(values[w.name][name][set], m.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: set %d/%d %s seed %d done\n", set+1, sets, w.name, run)
			}
		}
	}

	fmt.Printf("| workload | metric | set medians | largest difference | spread (IQR/median, all runs) | needs | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|\n")
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			var meds, all []float64
			for _, readings := range values[w.name][d.name] {
				if len(readings) == 0 {
					continue // every run of the set failed
				}
				meds = append(meds, median(readings))
				all = append(all, readings...)
			}
			if len(all) < 2 {
				continue
			}
			lo, hi := meds[0], meds[0]
			cells := ""
			for i, m := range meds {
				lo, hi = math.Min(lo, m), math.Max(hi, m)
				if i > 0 {
					cells += " / "
				}
				cells += fmt.Sprintf("%.4g", m)
			}
			diff := (hi - lo) / median(meds)
			q1, q3 := quartiles(all)
			spread := (q3 - q1) / median(all)
			// What the rule in metrics.go asks of the bound, before the ceiling.
			needs := math.Max(d.floor, math.Max(2*diff, 3*spread))
			flag := ""
			if math.Min(needs, boundCeiling) > d.bound {
				flag = " ⚠"
				code = 1
			}
			fmt.Printf("| %s | %s (%s) | %s | %.1f%% | %.1f%% | %.0f%% | %.0f%%%s |\n",
				w.name, d.name, d.unit, cells, 100*diff, 100*spread, 100*needs, 100*d.bound, flag)
		}
	}
	if len(failed) > 0 {
		fmt.Printf("\nRuns that failed and are not in the table: %s.\n", strings.Join(failed, "; "))
		code = 1
	}
	return code
}
