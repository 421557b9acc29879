package core

import (
	"bytes"
	"strings"
	"testing"

	"olgapro/internal/gp"
	"olgapro/internal/udf"
)

// snapUDF is the 2-D UDF the snapshot fuzz corpus was written for.
var snapUDF = udf.FuncOf{D: 2, F: func(x []float64) float64 { return x[0] + x[1] }}

// Lengths read from a snapshot are checked before anything is sized by
// them: a huge ARD dimension or sparse budget is an error, never a
// makeslice panic or a multi-gigabyte allocation.
func TestRestoreCapsLengthsBeforeAllocating(t *testing.T) {
	cases := []struct {
		name string
		snap Snapshot
		want string
	}{
		{"ard dim beyond memory", Snapshot{KernelName: "sqexp-ard", ARDDim: 1 << 62, KernelParams: []float64{0, 0, 0}}, "dim"},
		{"ard dim off the udf", Snapshot{KernelName: "sqexp-ard", ARDDim: 3, KernelParams: []float64{0, 0, 0, 0}}, "dim 3"},
		{"ard params off the dim", Snapshot{KernelName: "sqexp-ard", ARDDim: 2, KernelParams: []float64{0, 0}}, "kernel params"},
		{"sparse budget beyond memory", Snapshot{KernelName: "sqexp", KernelParams: []float64{0, 0}, SparseBudget: 1 << 62}, "budget"},
		{"sparse budget over the cap", Snapshot{KernelName: "sqexp", KernelParams: []float64{0, 0}, SparseBudget: gp.MaxSparseBudget + 1}, "budget"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Restore(snapUDF, Config{}, &c.snap)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Restore = %v, want an error mentioning %q", err, c.want)
			}
		})
	}
	if _, err := NewEvaluator(snapUDF, Config{SparseBudget: 1 << 62}); err == nil {
		t.Fatal("NewEvaluator accepted a 2^62 sparse budget")
	}
}

// FuzzReadSnapshot feeds arbitrary bytes through ReadSnapshot and Restore,
// the path a replica takes with a peer's snapshot and a shard with its
// snapshot directory: either may fail, neither may panic. The seed corpus
// holds a valid exact, sparse and ARD snapshot and a truncated one.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		Restore(snapUDF, Config{}, s)
	})
}
