// Command benchdiff is the CI benchmark-regression gate: it compares a
// fresh cmd/bench run against a committed BENCH_*.json baseline and exits 1
// when a hot-path benchmark regressed.
//
// Usage:
//
//	go run ./cmd/benchdiff -baseline BENCH_PR2.json -current BENCH_PR3.json
//	       [-max-regress 0.35] [-exempt '^parallel_']
//
// Rules, applied to every benchmark name present in the baseline:
//
//   - ns/op: fail when current > baseline × (1 + max-regress);
//   - allocs/op: fail on any increase beyond ⌊base × alloc-slack⌋ (default
//     0.5%), which is zero — the original hard gate — for every benchmark
//     with fewer than 200 baseline allocs/op: the zero-allocation hot-path
//     invariant stays strict, while multi-second single-iteration
//     benchmarks absorb the handful of background runtime allocations that
//     vary with process composition;
//   - a baseline benchmark missing from the current run fails, so a
//     benchmark cannot silently vanish from the gate (delete it from the
//     committed baseline deliberately instead);
//   - names matching -exempt (default ^(parallel|server|fleet)_) skip the
//     ns/op rule: throughput and replication-lag timings depend on the
//     host's core count, scheduler, and network stack, which differ between
//     the machine that committed the baseline and the CI runner. Their
//     allocs/op rule still applies — allocation counts do not depend on the
//     host — so an allocation regression on the serving path fails the
//     gate. Its slack is 4% instead of alloc-slack, since their counts vary
//     with goroutine scheduling and with how many iterations amortize
//     setup (sized in internal/benchfmt);
//   - benchmarks present in the current run but missing from the baseline
//     are listed as "new (not gated)" and summarized, so additions (e.g.
//     the BENCH_PR4 tuning_pick_* pair) are visible in CI output rather
//     than silently ignored.
//
// The comparison rules live in benchfmt.Diff (unit-tested); this command is
// only the CLI shell around them.
//
// Both files may use either trajectory schema (run or comparison); a
// comparison contributes its "after" side. See internal/benchfmt.
//
// Caveat: the ns/op gate compares absolute timings across machines — the
// committed baseline's host and the CI runner differ in CPU model and
// shared-runner noise. The 35% default absorbs typical variance; if a
// fleet's runners drift further, loosen it via BENCH_MAX_REGRESS in the
// Makefile (the allocs/op gate is machine-independent and stays strict)
// or refresh the committed baseline from a representative runner.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"olgapro/internal/benchfmt"
)

func main() {
	baseline := flag.String("baseline", "", "committed baseline BENCH_*.json (required)")
	current := flag.String("current", "", "fresh bench run to gate (required)")
	maxRegress := flag.Float64("max-regress", 0.35, "allowed fractional ns/op regression")
	allocSlack := flag.Float64("alloc-slack", 0.005, "allowed fractional allocs/op increase, floored per benchmark (0 for baselines < 1/slack, keeping low-count gates strict)")
	exempt := flag.String("exempt", "^(parallel|server|fleet)_", "regexp of benchmark names exempt from the ns/op rule (allocs/op is still gated)")
	flag.Parse()

	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		os.Exit(2)
	}
	exemptRe, err := regexp.Compile(*exempt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: bad -exempt: %v\n", err)
		os.Exit(2)
	}
	base, err := benchfmt.ReadRun(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cur, err := benchfmt.ReadRun(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	entries, failures, added := benchfmt.Diff(base, cur, benchfmt.DiffOptions{
		MaxRegress: *maxRegress,
		AllocSlack: *allocSlack,
		Exempt:     exemptRe,
	})
	fmt.Printf("benchdiff: %s (baseline) vs %s  [max ns/op regression %.0f%%]\n",
		*baseline, *current, *maxRegress*100)
	fmt.Printf("%-26s %14s %14s %8s %9s %9s  %s\n",
		"benchmark", "base ns/op", "cur ns/op", "Δns", "base a/op", "cur a/op", "verdict")
	var newNames []string
	for _, e := range entries {
		bNs, bAllocs := "-", "-"
		if e.Base != nil {
			bNs = fmt.Sprintf("%.0f", e.Base.NsPerOp)
			bAllocs = fmt.Sprintf("%d", e.Base.AllocsPerOp)
		}
		cNs, cAllocs, delta := "-", "-", "-"
		if e.Cur != nil {
			cNs = fmt.Sprintf("%.0f", e.Cur.NsPerOp)
			cAllocs = fmt.Sprintf("%d", e.Cur.AllocsPerOp)
		}
		if e.Base != nil && e.Cur != nil {
			delta = fmt.Sprintf("%.0f%%", e.Delta*100)
		}
		fmt.Printf("%-26s %14s %14s %8s %9s %9s  %s\n",
			e.Name, bNs, cNs, delta, bAllocs, cAllocs, e.Verdict)
		if e.New {
			newNames = append(newNames, e.Name)
		}
	}
	if added > 0 {
		fmt.Printf("benchdiff: %d new benchmark(s) not in baseline: %s — gated once the baseline is refreshed\n",
			added, strings.Join(newNames, ", "))
	}
	if failures > 0 {
		fmt.Printf("benchdiff: FAIL — %d regression(s); rerun `make bench-diff` locally, "+
			"or update the committed baseline if the regression is intended\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchdiff: PASS")
}
