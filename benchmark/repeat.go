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
)

// repeat runs every selected workload runs times, each run in a child
// process of this binary with its own seed (seed, seed+1, …) and with the
// workload order reversed on every other run, and reports for every
// (metric, workload) the median and the spread (Q3 − Q1) / median of the
// runs. This is how the bounds in BENCHMARK.json were fixed.
func repeat(selected []workload, seed int64, seconds, trace, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		logf("repeat: %v", err)
		return 1
	}
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	code := 0
	for r := 0; r < runs; r++ {
		order := append([]workload(nil), selected...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		s := seed + int64(r)
		for _, w := range order {
			res, stderr, err := runChild(exe, w.name, s, seconds, trace)
			if err != nil || !res.Correct {
				logf("run %d %s seed %d: failed (%v); its report:\n%s", r, w.name, s, err, stderr)
				code = 1
				continue
			}
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				vals[w.name][name] = append(vals[w.name][name], v.Value)
				units[name] = v.Unit
			}
			logf("run %d %-13s seed %-4d attempted %-7d ok", r, w.name, s, res.Attempted)
		}
	}

	type stat struct {
		Median float64   `json:"median"`
		Spread float64   `json:"spread"`
		Unit   string    `json:"unit"`
		Values []float64 `json:"values"`
	}
	summary := map[string]map[string]stat{}
	logf("%-14s %-24s %14s %8s  %s", "workload", "metric", "median", "spread", "unit")
	for _, w := range selected {
		names := make([]string, 0, len(vals[w.name]))
		for name := range vals[w.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		summary[w.name] = map[string]stat{}
		for _, name := range names {
			xs := vals[w.name][name]
			st := stat{Median: median(xs), Spread: spread(xs), Unit: units[name], Values: xs}
			summary[w.name][name] = st
			logf("%-14s %-24s %14.6g %7.1f%%  %s", w.name, name, st.Median, 100*st.Spread, st.Unit)
		}
	}
	out, err := json.Marshal(summary)
	if err != nil {
		logf("repeat: %v", err)
		return 1
	}
	fmt.Println(string(out))
	return code
}

// runChild runs one workload in a child process and parses its result line.
func runChild(exe, name string, seed int64, seconds, trace int) (result, []byte, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil && runErr == nil {
		runErr = fmt.Errorf("no result line: %w", err)
	}
	return res, stderr.Bytes(), runErr
}

// pyQuartiles are Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), the quartiles the spread is defined with. median matches
// Python's statistics.median.
func pyQuartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is (Q3 − Q1) / median; 0 when every value is equal.
func spread(xs []float64) float64 {
	q1, q3 := pyQuartiles(xs)
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / math.Abs(median(xs))
}
