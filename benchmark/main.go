// Command benchmark is the end-to-end serving benchmark. It boots real
// olgaprod shards (and, for the scattered-query workload, a fleet router) in
// this process on loopback TCP, drives one of four workloads through the
// public client, checks every answer, and prints the result as one JSON
// line on standard output:
//
//	go run . --workload eval_point --seed 1 --seconds 10 --trace 0
//
// --trace 1 reruns the traffic with spans recorded around every layer
// boundary and replays captured inputs through each layer's exported API,
// printing per-layer metrics instead of end-to-end ones. --runs N repeats
// every workload N times in child processes and prints the median and
// spread of every metric. The human-readable report goes to standard error.
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	run  func(rc *runCtx) error
}

var workloads = []workload{
	{"eval_point", "single frozen evals, open loop at 2000 req/s alternating with 2 closed-loop senders: per-request layers (client, net/http, wire, admission, clone borrow) dominate", runEvalPoint},
	{"q1_stream", "paper query Q1 (galaxy age) as frozen NDJSON streams, closed loop: the emulator and the exec fan-out dominate, HTTP cost is spread over each stream", runQ1Stream},
	{"query_scatter", "router + 3 shards, bounded group-by + top-k over 512 rows of 3 UDFs, closed loop: the only workload through fleet scatter, partial state wire and merge", runQueryScatter},
	{"learn_mixed", "online learning of a drifting path in 10-tuple streams, a frozen read beside each: writer loop, GP growth, tuning and clone rebuilds after each model change", runLearnMixed},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// logf writes one line of the human-readable report.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// size is the workloads' dimensions. The test suite runs the same code at
// a smaller size.
type size struct {
	evalRate                     float64       // eval_point's open-loop requests per second
	q1Learn, q1HeldOut, q1Stream int           // Q1 learn set, held-out galaxies, tuples per stream
	scatterRows                  int           // rows per scattered query
	mixLearn                     int           // drifting inputs learned per round
	slice, probe                 time.Duration // traffic slice and host-reference probe (hostref.go)
}

var fullSize = size{evalRate: 2000, q1Learn: 1000, q1HeldOut: 1024, q1Stream: 256, scatterRows: 512, mixLearn: 300,
	slice: time.Second, probe: 200 * time.Millisecond}

// runCtx is one workload run: its settings, and the report it fills.
type runCtx struct {
	ctx      context.Context
	workload string
	seed     int64
	dur      time.Duration
	size     size
	trace    bool
	tr       *tracer // non-nil exactly when trace is set
	ref      *hostRef

	metrics map[string]value

	invalid []string // ladder replays that did not reproduce the served bytes

	mu                sync.Mutex // guards the counters below
	attempted, failed int64
	logged            int
}

func newRunCtx(w workload, seed int64, dur time.Duration, sz size, trace bool) (*runCtx, error) {
	ref, err := startHostRef(sz.probe)
	if err != nil {
		return nil, err
	}
	rc := &runCtx{
		ctx:      context.Background(),
		workload: w.name,
		seed:     seed,
		dur:      dur,
		size:     sz,
		trace:    trace,
		ref:      ref,
		metrics:  map[string]value{},
	}
	if trace {
		rc.tr = newTracer(w.name)
	}
	return rc, nil
}

// attempt counts n operations toward attempted.
func (rc *runCtx) attempt(n int64) {
	rc.mu.Lock()
	rc.attempted += n
	rc.mu.Unlock()
}

// failf records one failed operation or answer check.
func (rc *runCtx) failf(format string, args ...any) {
	rc.mu.Lock()
	rc.failed++
	rc.mu.Unlock()
	rc.logFailure(fmt.Sprintf(format, args...))
}

// logFailure prints the first few failures of a run.
func (rc *runCtx) logFailure(msg string) {
	rc.mu.Lock()
	rc.logged++
	n := rc.logged
	rc.mu.Unlock()
	if n <= 20 {
		logf("  FAIL %s: %s", rc.workload, msg)
	}
}

// noteInvalid records a ladder replay that did not reproduce the served
// bytes. Its rows print as invalid. It does not fail the run: the answers
// themselves are checked separately, and a replay that drifts from a later
// version of the program is the ladder's problem, not the program's.
func (rc *runCtx) noteInvalid(msg string) {
	rc.invalid = append(rc.invalid, msg)
	logf("  INVALID ladder replay: %s", msg)
}

// account adds timed traffic to the run's counts; the generators have
// already counted each failed request, and the op that failed logged it.
func (rc *runCtx) account(ts ...traffic) {
	rc.mu.Lock()
	for _, t := range ts {
		rc.attempted += t.reqs
		rc.failed += t.failed
	}
	rc.mu.Unlock()
}

// set records a metric; the unit comes from the catalogs.
func (rc *runCtx) set(name string, v float64) {
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if m.Name == name {
			rc.metrics[name] = value{Value: v, Unit: m.Unit}
			return
		}
	}
	panic("benchmark: unknown metric " + name)
}

// result assembles the output line: exactly the catalog for the mode, every
// value finite. A missing or non-finite metric is a failed check.
func (rc *runCtx) result() result {
	if rc.ref.err != nil {
		rc.failf("%v", rc.ref.err)
	}
	want := endToEnd
	if rc.trace {
		want = perLayer
	}
	out := map[string]value{}
	for _, m := range want {
		v, ok := rc.metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rc.failf("metric %s missing or not finite (%v)", m.Name, v.Value)
			v = value{Value: 0, Unit: m.Unit}
		}
		out[m.Name] = v
	}
	attempted := rc.attempted
	if attempted < 1 {
		attempted = 1
	}
	return result{Correct: rc.failed == 0, Attempted: attempted, Failed: rc.failed, Metrics: out}
}

func main() {
	name := flag.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the timed traffic runs")
	trace := flag.Int("trace", 0, "1: record spans and print per-layer metrics instead of end-to-end ones")
	spans := flag.String("spans", "", "with --trace 1, write the recorded spans to this JSON file")
	runs := flag.Int("runs", 0, "repeat every selected workload this many times in child processes (seeds seed, seed+1, …) and print each metric's median and spread")
	flag.Parse()

	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			logf("unknown workload %q (want %s, or all)", *name, workloadNames())
			os.Exit(2)
		}
		selected = []workload{w}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("--seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *runs > 0 {
		os.Exit(repeat(selected, *seed, *seconds, *trace, *runs))
	}

	logf("host: GOMAXPROCS=%d NumCPU=%d %s %s/%s", runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	code := 0
	var all []span
	for _, w := range selected {
		rc, err := newRunCtx(w, *seed, time.Duration(*seconds)*time.Second, fullSize, *trace == 1)
		if err != nil {
			logf("%s: %v", w.name, err)
			os.Exit(1)
		}
		logf("== %s (seed %d, %ds, trace %d): %s", w.name, *seed, *seconds, *trace, w.why)
		if err := w.run(rc); err != nil {
			rc.failf("%v", err)
		}
		rc.ref.close()
		res := rc.result()
		logf("  attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
		if !res.Correct {
			code = 1
		}
		if rc.tr != nil {
			all = append(all, rc.tr.snapshot()...)
		}
		line, err := json.Marshal(res)
		if err != nil {
			logf("encode result: %v", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if *spans != "" && *trace == 1 {
		if err := writeSpans(*spans, all); err != nil {
			logf("write spans: %v", err)
			code = 1
		} else {
			logf("wrote %d spans to %s", len(all), *spans)
		}
	}
	os.Exit(code)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
