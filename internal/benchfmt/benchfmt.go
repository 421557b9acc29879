// Package benchfmt reads and writes the BENCH_*.json performance
// trajectory and holds the regression-gate rules cmd/benchdiff applies:
// per-benchmark ns/op, B/op, allocs/op measurements, plus tuples/sec for
// the throughput benchmarks. Measurements come from Go's standard
// `go test -bench -benchmem` output (ParseBench), one row per
// Benchmark_<name> function, reduced to per-name medians.
package benchfmt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// SchemaRun identifies a trajectory file: one set of measurements.
const SchemaRun = "olgapro-bench/v1"

// Result records one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	// TuplesPerSec is set on throughput benchmarks only: processed tuples
	// per wall-clock second, reported by the benchmark as "tuples/s".
	TuplesPerSec float64 `json:"tuples_sec,omitempty"`
}

// Run is the file format of one set of measurements.
type Run struct {
	Schema     string   `json:"schema"`
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// DiffOptions parameterize the regression gate.
type DiffOptions struct {
	// MaxRegress is the allowed fractional ns/op regression (0.35 = +35%).
	MaxRegress float64
	// Exempt matches benchmark names whose ns/op is reported but never gated
	// (host-dependent throughput families); their allocs/op stays gated,
	// since allocation counts do not depend on the host's cores. Nil gates
	// every name.
	Exempt *regexp.Regexp
	// AllocSlack is the allowed fractional allocs/op increase, floored per
	// benchmark to an absolute count, so it only ever relaxes large-count
	// benchmarks: the tolerance is ⌊base × AllocSlack⌋, which is 0 — the
	// original hard gate — for any baseline below 1/AllocSlack allocs.
	// Multi-second single-iteration benchmarks pick up a handful of
	// background runtime allocations that vary with process composition
	// (~0.4% observed); without the floor-scaled slack those flake the
	// gate while real leaks (+1 on a 0-alloc hot path) still fail.
	// Zero means strict equality everywhere.
	AllocSlack float64
}

// exemptAllocSlack replaces AllocSlack for Exempt names, floored the same
// way. Their allocs/op depends on goroutine scheduling and on how many
// iterations amortize setup, so it spreads by more than the serial
// benchmarks' background noise: 4% is twice the largest run-to-run spread
// measured on them, 2.0% on parallel_eval_table_w8 (1529–1560 over twelve
// runs of one commit on a 2-vCPU host).
const exemptAllocSlack = 0.04

// allocBudget returns the allowed allocs/op for a baseline count.
func (o DiffOptions) allocBudget(base int64, exempted bool) int64 {
	slack := o.AllocSlack
	if exempted {
		slack = exemptAllocSlack
	}
	return base + int64(float64(base)*slack)
}

// DiffEntry is one row of a baseline/current comparison.
type DiffEntry struct {
	Name    string
	Base    *Result // nil when the benchmark is new in the current run
	Cur     *Result // nil when the benchmark vanished from the current run
	Delta   float64 // fractional ns/op change (0 when either side is absent)
	Verdict string
	Failed  bool
	New     bool // present in the current run but missing from the baseline
}

// Diff applies the regression-gate rules to a baseline and a current run:
//
//   - ns/op: fail when current > baseline × (1 + MaxRegress);
//   - allocs/op: fail on any increase beyond ⌊base × AllocSlack⌋ — for the
//     low-count hot-path benchmarks that floor is 0, so the zero-allocation
//     invariant stays a hard gate, not a soft budget;
//   - a baseline benchmark missing from the current run fails, so a
//     benchmark cannot silently vanish from the gate;
//   - exempt names are not gated on ns/op, only on allocs/op, against
//     ⌊base × exemptAllocSlack⌋;
//   - benchmarks present only in the current run are reported as New and
//     never gated, so additions stay visible in CI output instead of being
//     silently ignored.
//
// Entries come back in baseline order followed by new benchmarks in current
// order, with the failure and new-benchmark counts.
func Diff(base, cur *Run, opt DiffOptions) (entries []DiffEntry, failures, added int) {
	curBy := cur.ByName()
	baseBy := base.ByName()
	for i := range base.Results {
		b := &base.Results[i]
		e := DiffEntry{Name: b.Name, Base: b}
		exempted := opt.Exempt != nil && opt.Exempt.MatchString(b.Name)
		c, ok := curBy[b.Name]
		switch {
		case !ok && exempted:
			e.Verdict = "exempt (missing)"
		case !ok:
			e.Verdict = "FAIL (missing from current run)"
			e.Failed = true
		default:
			e.Cur = &c
			if b.NsPerOp > 0 {
				e.Delta = c.NsPerOp/b.NsPerOp - 1
			}
			switch {
			case !exempted && c.NsPerOp > b.NsPerOp*(1+opt.MaxRegress):
				e.Verdict = fmt.Sprintf("FAIL (ns/op +%.0f%% > %.0f%%)", e.Delta*100, opt.MaxRegress*100)
				e.Failed = true
			case c.AllocsPerOp > opt.allocBudget(b.AllocsPerOp, exempted):
				e.Verdict = fmt.Sprintf("FAIL (allocs/op %d > %d)", c.AllocsPerOp, opt.allocBudget(b.AllocsPerOp, exempted))
				e.Failed = true
			case exempted:
				e.Verdict = "exempt"
			default:
				e.Verdict = "ok"
			}
		}
		if e.Failed {
			failures++
		}
		entries = append(entries, e)
	}
	for i := range cur.Results {
		c := &cur.Results[i]
		if _, ok := baseBy[c.Name]; ok {
			continue
		}
		entries = append(entries, DiffEntry{
			Name: c.Name, Cur: c, New: true, Verdict: "new (not gated)",
		})
		added++
	}
	return entries, failures, added
}

// ByName indexes a run's results.
func (r *Run) ByName() map[string]Result {
	m := make(map[string]Result, len(r.Results))
	for _, res := range r.Results {
		m[res.Name] = res
	}
	return m
}

// ReadRun loads a trajectory file or a captured `go test -bench` output:
// a file whose first non-blank byte is '{' is read as a BENCH_*.json run,
// anything else goes through ParseBench.
func ReadRun(path string) (*Run, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(bytes.TrimSpace(raw), []byte("{")) {
		run, err := ParseBench(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return run, nil
	}
	var run Run
	if err := json.Unmarshal(raw, &run); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if run.Schema != SchemaRun {
		return nil, fmt.Errorf("%s: unknown schema %q", path, run.Schema)
	}
	return &run, nil
}

// benchLine matches one result line of `go test -bench`: the function name,
// an optional -N GOMAXPROCS suffix, the iteration count, and the
// value/unit pairs after it.
var benchLine = regexp.MustCompile(`^Benchmark(\S*?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// ParseBench reads `go test -bench -benchmem` output — any number of
// packages and -count repeats — and returns one Result per benchmark name
// in first-seen order, each field the median over that name's repeats. A
// Benchmark_<name> function yields the row <name>; other benchmarks keep
// their full function name. Any "FAIL" or "--- FAIL" line is an error, so
// a benchmark that fails cannot drop out of the run unnoticed, and so is a
// name that shows up under a second "pkg:" line, so two packages' samples
// never merge into one median.
func ParseBench(r io.Reader) (*Run, error) {
	type samples struct {
		iters, ns, bytes, allocs, tuples []float64
	}
	by := map[string]*samples{}
	pkgOf := map[string]string{}
	var order []string
	procs := 0
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "FAIL" || strings.HasPrefix(line, "FAIL\t") || strings.HasPrefix(line, "--- FAIL") {
			return nil, fmt.Errorf("benchmark run failed: %q", line)
		}
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = p
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "_")
		if m[1] == name {
			name = "Benchmark" + name
		}
		p := 1
		if m[2] != "" {
			p, _ = strconv.Atoi(m[2])
		}
		if procs != 0 && p != procs {
			return nil, fmt.Errorf("%s: GOMAXPROCS %d in a run at %d", name, p, procs)
		}
		procs = p
		s := by[name]
		if s == nil {
			s = &samples{}
			by[name] = s
			pkgOf[name] = pkg
			order = append(order, name)
		} else if pkgOf[name] != pkg {
			return nil, fmt.Errorf("%s: in both %s and %s", name, pkgOf[name], pkg)
		}
		iters, _ := strconv.ParseFloat(m[3], 64)
		s.iters = append(s.iters, iters)
		f := strings.Fields(m[4])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", name, f[i])
			}
			switch f[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			case "tuples/s":
				s.tuples = append(s.tuples, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	run := &Run{Schema: SchemaRun, GOMAXPROCS: procs}
	for _, name := range order {
		s := by[name]
		if len(s.allocs) != len(s.iters) {
			return nil, fmt.Errorf("%s: no allocs/op (run with -benchmem)", name)
		}
		run.Results = append(run.Results, Result{
			Name:         name,
			Iters:        int(median(s.iters)),
			NsPerOp:      median(s.ns),
			BytesPerOp:   int64(median(s.bytes)),
			AllocsPerOp:  int64(median(s.allocs)),
			TuplesPerSec: median(s.tuples),
		})
	}
	return run, nil
}

// median returns the middle value of xs, the mean of the two middle
// values for an even count, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
