// Package benchfmt defines the JSON schema of the BENCH_*.json performance
// trajectory files shared by cmd/bench (the writer) and cmd/benchdiff (the
// CI regression gate): per-benchmark ns/op, B/op, allocs/op measurements,
// plus derived tuples/sec for the throughput benchmarks.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// Schema identifiers of the two file shapes.
const (
	SchemaRun = "olgapro-bench/v1"     // one harness invocation
	SchemaCmp = "olgapro-bench-cmp/v1" // a before/after comparison
)

// Result records one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	// TuplesPerSec is set on throughput benchmarks only: processed tuples
	// per wall-clock second, derived from ns/op and the table size.
	TuplesPerSec float64 `json:"tuples_sec,omitempty"`
}

// Run is the file format of one harness invocation.
type Run struct {
	Schema     string   `json:"schema"`
	Label      string   `json:"label,omitempty"`
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// Comparison is the trajectory entry written when a baseline is embedded.
type Comparison struct {
	Schema   string             `json:"schema"`
	Date     string             `json:"date"`
	Before   *Run               `json:"before"`
	After    *Run               `json:"after"`
	Speedups map[string]float64 `json:"speedup_ns_op"`
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

// ReadRun loads a trajectory file in either schema: a plain run is returned
// as-is, a comparison contributes its "after" side (the measurements that
// were current when the file was committed).
func ReadRun(path string) (*Run, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch probe.Schema {
	case SchemaRun:
		var run Run
		if err := json.Unmarshal(raw, &run); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &run, nil
	case SchemaCmp:
		var cmp Comparison
		if err := json.Unmarshal(raw, &cmp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if cmp.After == nil {
			return nil, fmt.Errorf("%s: comparison has no after side", path)
		}
		return cmp.After, nil
	default:
		return nil, fmt.Errorf("%s: unknown schema %q", path, probe.Schema)
	}
}
