package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func writeFile(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.out")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, raw)
}

// countedOutput is captured `go test -run '^$' -bench '^Benchmark_'
// -benchmem -count 3` output over two packages at GOMAXPROCS=2.
const countedOutput = `goos: linux
goarch: amd64
pkg: olgapro/internal/ecdf
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
Benchmark_discrepancy_bound_m1784-2   	    4144	    311427 ns/op	       0 B/op	       0 allocs/op
Benchmark_discrepancy_bound_m1784-2   	    3990	    305172 ns/op	       0 B/op	       0 allocs/op
Benchmark_discrepancy_bound_m1784-2   	    4050	    402000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	olgapro/internal/ecdf	6.102s
goos: linux
goarch: amd64
pkg: olgapro/internal/exec
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
Benchmark_parallel_eval_table_w2-2    	      48	  24794689 ns/op	      2581 tuples/s	 1718264 B/op	    1251 allocs/op
Benchmark_parallel_eval_table_w2-2    	      46	  26000000 ns/op	      2461 tuples/s	 1722640 B/op	    1253 allocs/op
Benchmark_parallel_eval_table_w2-2    	      40	  33282831 ns/op	      1923 tuples/s	 1718000 B/op	    1249 allocs/op
PASS
ok  	olgapro/internal/exec	9.511s
`

func TestParseBenchMediansSuffixAndMetric(t *testing.T) {
	run, err := ParseBench(strings.NewReader(countedOutput))
	if err != nil {
		t.Fatal(err)
	}
	if run.Schema != SchemaRun || run.GOMAXPROCS != 2 {
		t.Fatalf("schema %q GOMAXPROCS %d, want %q and 2 from the -2 suffix", run.Schema, run.GOMAXPROCS, SchemaRun)
	}
	want := []Result{
		{Name: "discrepancy_bound_m1784", Iters: 4050, NsPerOp: 311427},
		{Name: "parallel_eval_table_w2", Iters: 46, NsPerOp: 26000000, BytesPerOp: 1718264,
			AllocsPerOp: 1251, TuplesPerSec: 2461},
	}
	if len(run.Results) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(run.Results), len(want), run.Results)
	}
	for i, w := range want {
		if run.Results[i] != w {
			t.Errorf("row %d = %+v, want the per-field medians %+v", i, run.Results[i], w)
		}
	}
}

func TestParseBenchEvenCountAndPlainNames(t *testing.T) {
	out := "BenchmarkGrad 	 10	 100 ns/op	 8 B/op	 1 allocs/op\n" +
		"BenchmarkGrad 	 10	 300 ns/op	 8 B/op	 2 allocs/op\n"
	run, err := ParseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.Name != "BenchmarkGrad" || r.NsPerOp != 200 || run.GOMAXPROCS != 1 {
		t.Fatalf("got %+v at GOMAXPROCS %d, want BenchmarkGrad at 200 ns/op and GOMAXPROCS 1", r, run.GOMAXPROCS)
	}
}

func TestParseBenchFailIsError(t *testing.T) {
	for _, fail := range []string{
		"--- FAIL: Benchmark_fleet_learn_replicated-2\n    trajectory_test.go:151: op 3: seq unchanged\n",
		"FAIL\n",
		"FAIL\tolgapro/internal/fleet\t3.2s\n",
	} {
		if _, err := ParseBench(strings.NewReader(countedOutput + fail)); err == nil {
			t.Errorf("output ending in %q parsed without error", fail)
		}
	}
}

func TestParseBenchRejectsMixedProcsAndMissingMem(t *testing.T) {
	mixed := "Benchmark_a-2 	 10	 100 ns/op	 0 B/op	 0 allocs/op\n" +
		"Benchmark_a-4 	 10	 100 ns/op	 0 B/op	 0 allocs/op\n"
	if _, err := ParseBench(strings.NewReader(mixed)); err == nil {
		t.Error("rows at two GOMAXPROCS values parsed without error")
	}
	if _, err := ParseBench(strings.NewReader("Benchmark_a-2 	 10	 100 ns/op\n")); err == nil {
		t.Error("a row without -benchmem columns parsed without error")
	}
}

// TestParseBenchNameUnderTwoPackages: bench-diff concatenates rounds, so a
// package's header repeats and its rows still merge; a name that a second
// package also defines is an error, not one median over both.
func TestParseBenchNameUnderTwoPackages(t *testing.T) {
	run, err := ParseBench(strings.NewReader(countedOutput + countedOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 2 {
		t.Fatalf("two rounds of one output gave %d rows, want 2", len(run.Results))
	}
	dup := countedOutput + "pkg: olgapro/internal/core\n" +
		"Benchmark_discrepancy_bound_m1784-2   	    4144	    311427 ns/op	       0 B/op	       0 allocs/op\n"
	if _, err := ParseBench(strings.NewReader(dup)); err == nil {
		t.Error("one name under two packages parsed without error")
	}
}

// TestParsedGateFailsOnVanishedName runs the gate over captured reference
// and change outputs: a name the reference ran and the change did not must
// fail, so deleting a Benchmark_ function cannot pass the gate.
func TestParsedGateFailsOnVanishedName(t *testing.T) {
	ref, err := ParseBench(strings.NewReader(countedOutput))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ParseBench(strings.NewReader(countedOutput[:strings.Index(countedOutput, "goos: linux\ngoarch: amd64\npkg: olgapro/internal/exec")]))
	if err != nil {
		t.Fatal(err)
	}
	entries, failures, _ := Diff(ref, cur, DiffOptions{MaxRegress: 0.35, AllocSlack: 0.005})
	if failures != 1 || !entryByName(t, entries, "parallel_eval_table_w2").Failed {
		t.Fatalf("vanished row not failed: %d failures, %+v", failures, entries)
	}
	// Under the exemption pattern a vanished exempt row is reported, not
	// failed (the rule benchdiff applies to host-dependent families).
	_, failures, _ = Diff(ref, cur, DiffOptions{MaxRegress: 0.35, Exempt: regexp.MustCompile(`^parallel_`)})
	if failures != 0 {
		t.Fatalf("vanished exempt row failed the gate")
	}
}

// TestReadRunBothSchemas reads the two input shapes benchdiff accepts: a
// BENCH_*.json trajectory file and captured `go test -bench` output.
func TestReadRunBothSchemas(t *testing.T) {
	run := &Run{
		Schema:  SchemaRun,
		Results: []Result{{Name: "a", NsPerOp: 100, AllocsPerOp: 2}},
	}
	got, err := ReadRun(writeJSON(t, run))
	if err != nil {
		t.Fatal(err)
	}
	if got.ByName()["a"].NsPerOp != 100 {
		t.Fatalf("run read back wrong: %+v", got)
	}

	got, err = ReadRun(writeFile(t, []byte(countedOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if got.ByName()["discrepancy_bound_m1784"].NsPerOp != 311427 {
		t.Fatalf("bench output read back wrong: %+v", got)
	}
}

func TestReadRunRejectsGarbage(t *testing.T) {
	if _, err := ReadRun(writeJSON(t, map[string]string{"schema": "nope"})); err == nil {
		t.Error("unknown schema should error")
	}
	if _, err := ReadRun(writeJSON(t, map[string]string{"schema": "olgapro-bench-cmp/v1"})); err == nil {
		t.Error("the retired comparison schema should error")
	}
	if _, err := ReadRun(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}
