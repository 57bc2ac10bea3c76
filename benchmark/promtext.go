package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSeries is one scrape of a Prometheus text exposition: the value of
// every series, keyed by its name with its label set as printed.
type promSeries map[string]float64

// parsePromText reads text format 0.0.4 as the servers emit it: one
// "name{labels} value" per line, comments and blank lines skipped. Label
// values here never hold spaces, so the value is the last field.
func parsePromText(text string) (promSeries, error) {
	out := make(promSeries)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// family sums every series of one metric name, whatever its labels.
func (s promSeries) family(name string) float64 {
	total := 0.0
	for key, v := range s {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}

// delta is after−before of one family.
func delta(before, after promSeries, name string) float64 {
	return after.family(name) - before.family(name)
}
