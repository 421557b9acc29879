// Command benchdiff is the benchmark-regression gate and the writer of the
// BENCH_*.json trajectory files. It reads `go test -bench -benchmem`
// output (or a BENCH_*.json run), reduces every benchmark to the median of
// its repeats, and with -baseline exits 1 when a hot-path benchmark
// regressed against the baseline.
//
// Usage:
//
//	go run ./cmd/benchdiff -current cur.txt [-baseline ref.txt] [-out BENCH_PRn.json]
//	       [-max-regress 0.35]
//
// `make bench-diff` is the intended caller: it runs the Benchmark_<name>
// rows of a reference commit (BENCH_REF, default HEAD: what is committed)
// and of the working tree alternately on one host, so both sides see the same machine at the
// same time, and hands the two outputs to this command.
//
// Rules, applied to every benchmark name present in the baseline:
//
//   - ns/op: fail when current > baseline × (1 + max-regress);
//   - allocs/op: fail on any increase beyond ⌊base × allocSlack⌋ (0.5%),
//     which is zero — the original hard gate — for every benchmark
//     with fewer than 200 baseline allocs/op: the zero-allocation hot-path
//     invariant stays strict, while multi-second single-iteration
//     benchmarks absorb the handful of background runtime allocations that
//     vary with process composition;
//   - a baseline benchmark missing from the current run fails, so a
//     benchmark cannot silently vanish from the gate;
//   - names matching exemptNames (^(parallel|server|fleet)_) skip the
//     ns/op rule: throughput and replication-lag timings depend on the
//     host's core count, scheduler, and network stack, and spread too
//     widely between runs of one commit to gate. Their allocs/op rule
//     still applies, so an allocation regression on the serving path fails
//     the gate. Its slack is 4% instead of allocSlack, since their counts
//     vary with goroutine scheduling and with how many iterations amortize
//     setup (sized in internal/benchfmt);
//   - benchmarks present in the current run but missing from the baseline
//     are listed as "new (not gated)" and summarized, so additions are
//     visible in CI output rather than silently ignored.
//
// The comparison rules live in benchfmt.Diff (unit-tested); this command is
// only the CLI shell around them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"time"

	"olgapro/internal/benchfmt"
)

// allocSlack is the fractional allocs/op increase allowed, floored per
// benchmark (0 for baselines below 1/allocSlack, keeping low-count gates
// strict); exemptNames matches the benchmarks exempt from the ns/op rule.
const (
	allocSlack  = 0.005
	exemptNames = "^(parallel|server|fleet)_"
)

func main() {
	baseline := flag.String("baseline", "", "reference `go test -bench` output or BENCH_*.json run; gate -current against it")
	current := flag.String("current", "", "`go test -bench` output or BENCH_*.json run to report and gate (required)")
	out := flag.String("out", "", "write the current run's per-name medians to this BENCH_*.json file")
	maxRegress := flag.Float64("max-regress", 0.35, "allowed fractional ns/op regression")
	flag.Parse()

	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		os.Exit(2)
	}
	cur, err := benchfmt.ReadRun(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if *out != "" {
		if err := writeRun(*out, cur); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: wrote %s (%d benchmarks)\n", *out, len(cur.Results))
	}
	if *baseline == "" {
		return
	}
	base, err := benchfmt.ReadRun(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	entries, failures, added := benchfmt.Diff(base, cur, benchfmt.DiffOptions{
		MaxRegress: *maxRegress,
		AllocSlack: allocSlack,
		Exempt:     regexp.MustCompile(exemptNames),
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
		fmt.Printf("benchdiff: %d new benchmark(s) not in baseline: %s — gated once the baseline has them\n",
			added, strings.Join(newNames, ", "))
	}
	if failures > 0 {
		fmt.Printf("benchdiff: FAIL — %d regression(s); rerun `make bench-diff` on a quiet host to confirm\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchdiff: PASS")
}

// writeRun stamps run with the date and toolchain and writes it as a
// BENCH_*.json trajectory file.
func writeRun(path string, run *benchfmt.Run) error {
	run.Date = time.Now().UTC().Format(time.RFC3339)
	run.GoVersion = runtime.Version()
	enc, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
