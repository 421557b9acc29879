package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// smokeSize shrinks the workloads so the whole suite runs in seconds, and
// keeps eval_point's open loop far below capacity under the race detector.
var smokeSize = size{evalRate: 200, q1Learn: 100, q1HeldOut: 128, q1Stream: 64, scatterRows: 128, mixLearn: 60,
	slice: 150 * time.Millisecond, probe: 30 * time.Millisecond}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metric
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSpecConformance pins BENCHMARK.json to the program in both
// directions: the workloads, and the metric names, units and directions
// each mode prints, must be exactly the ones the file lists.
func TestSpecConformance(t *testing.T) {
	s := readSpec(t)
	var names, whys []string
	for _, w := range s.Workloads {
		names, whys = append(names, w.Name), append(whys, w.Why)
	}
	var wantNames, wantWhys []string
	for _, w := range workloads {
		wantNames, wantWhys = append(wantNames, w.name), append(wantWhys, w.why)
	}
	if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(whys, wantWhys) {
		t.Errorf("BENCHMARK.json workloads %v / %q, program has %v / %q", names, whys, wantNames, wantWhys)
	}
	var e2e []metric
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.metric)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(s.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", s.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(s.Paths, []string{"benchmark"}) || !reflect.DeepEqual(s.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("BENCHMARK.json command %v, paths %v", s.Command, s.Paths)
	}
	for _, w := range s.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}

// TestWorkloadsSmoke runs every workload at the smoke size, untraced and
// traced. Every answer check must pass and, when traced, every ladder
// replay must reproduce the served bytes (the replayed support_hash
// included), so this is also the ladder-fidelity test. Each run must print
// exactly its mode's metrics.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				rc, err := newRunCtx(w, 3, 400*time.Millisecond, smokeSize, traced)
				if err != nil {
					t.Fatal(err)
				}
				defer rc.ref.close()
				if err := w.run(rc); err != nil {
					t.Fatal(err)
				}
				res := rc.result()
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				if len(rc.invalid) > 0 {
					t.Fatalf("ladder replays did not reproduce the served bytes: %q", rc.invalid)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
					t.Fatalf("result line %s: want exactly correct, attempted, failed, metrics", line)
				}
			})
		}
	}
}

// TestPythonQuartiles pins the spread to Python's statistics.quantiles
// (exclusive method) and statistics.median.
func TestPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 || median([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) != 5.5 || median([]float64{3, 1, 2}) != 2 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread %v, want (8.25 − 2.75) / 5.5 = 1", got)
	}
}
