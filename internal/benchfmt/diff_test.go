package benchfmt

import (
	"regexp"
	"strings"
	"testing"
)

func diffFixture() (*Run, *Run) {
	base := &Run{Schema: SchemaRun, Results: []Result{
		{Name: "steady", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "growth", NsPerOp: 1000, AllocsPerOp: 5},
		{Name: "vanished", NsPerOp: 50, AllocsPerOp: 1},
		{Name: "parallel_w4", NsPerOp: 400, AllocsPerOp: 9},
	}}
	cur := &Run{Schema: SchemaRun, Results: []Result{
		{Name: "steady", NsPerOp: 110, AllocsPerOp: 0},           // +10%: ok
		{Name: "growth", NsPerOp: 1500, AllocsPerOp: 5},          // +50%: ns/op fail
		{Name: "parallel_w4", NsPerOp: 9000, AllocsPerOp: 9},     // exempt
		{Name: "tuning_pick_rank1", NsPerOp: 7, AllocsPerOp: 0},  // new
		{Name: "tuning_pick_clone", NsPerOp: 77, AllocsPerOp: 3}, // new
	}}
	return base, cur
}

func entryByName(t *testing.T, entries []DiffEntry, name string) DiffEntry {
	t.Helper()
	for _, e := range entries {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no entry %q", name)
	return DiffEntry{}
}

func TestDiffGateRules(t *testing.T) {
	base, cur := diffFixture()
	entries, failures, added := Diff(base, cur, DiffOptions{
		MaxRegress: 0.35,
		Exempt:     regexp.MustCompile("^parallel_"),
	})
	if failures != 2 {
		t.Fatalf("failures = %d, want 2 (ns/op regression + vanished)", failures)
	}
	if added != 2 {
		t.Fatalf("added = %d, want 2", added)
	}
	if e := entryByName(t, entries, "steady"); e.Failed || e.Verdict != "ok" {
		t.Errorf("steady: %+v", e)
	}
	if e := entryByName(t, entries, "growth"); !e.Failed || !strings.Contains(e.Verdict, "ns/op") {
		t.Errorf("growth should fail on ns/op: %+v", e)
	}
	if e := entryByName(t, entries, "vanished"); !e.Failed || !strings.Contains(e.Verdict, "missing") {
		t.Errorf("vanished should fail as missing: %+v", e)
	}
	if e := entryByName(t, entries, "parallel_w4"); e.Failed || e.Verdict != "exempt" {
		t.Errorf("parallel_w4 should be exempt despite 22×: %+v", e)
	}
	for _, name := range []string{"tuning_pick_rank1", "tuning_pick_clone"} {
		e := entryByName(t, entries, name)
		if !e.New || e.Failed || e.Verdict != "new (not gated)" {
			t.Errorf("%s should be reported as new and ungated: %+v", name, e)
		}
		if e.Base != nil || e.Cur == nil {
			t.Errorf("%s new entry sides wrong: %+v", name, e)
		}
	}
	// Baseline entries come first, in baseline order; new ones follow.
	wantOrder := []string{"steady", "growth", "vanished", "parallel_w4", "tuning_pick_rank1", "tuning_pick_clone"}
	for i, e := range entries {
		if e.Name != wantOrder[i] {
			t.Fatalf("entry %d = %s, want %s", i, e.Name, wantOrder[i])
		}
	}
}

func TestDiffAllocRegressionFails(t *testing.T) {
	base := &Run{Results: []Result{{Name: "hot", NsPerOp: 100, AllocsPerOp: 0}}}
	cur := &Run{Results: []Result{{Name: "hot", NsPerOp: 90, AllocsPerOp: 1}}}
	_, failures, _ := Diff(base, cur, DiffOptions{MaxRegress: 0.35})
	if failures != 1 {
		t.Fatalf("an allocs/op increase must fail even when ns/op improved (failures=%d)", failures)
	}
}

// AllocSlack relaxes only large-count benchmarks: the per-benchmark budget
// is ⌊base × slack⌋, so a 0-alloc (or any < 1/slack) baseline stays a hard
// equality gate while a multi-thousand-alloc one absorbs sub-percent
// background-runtime noise.
func TestDiffAllocSlackFloorScaled(t *testing.T) {
	base := &Run{Results: []Result{
		{Name: "hot", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "warm", NsPerOp: 100, AllocsPerOp: 137},
		{Name: "growth", NsPerOp: 100, AllocsPerOp: 2072},
	}}
	cur := &Run{Results: []Result{
		{Name: "hot", NsPerOp: 100, AllocsPerOp: 1},       // 0-alloc gate stays strict
		{Name: "warm", NsPerOp: 100, AllocsPerOp: 138},    // ⌊137×0.005⌋ = 0 → strict
		{Name: "growth", NsPerOp: 100, AllocsPerOp: 2080}, // ⌊2072×0.005⌋ = 10 → ok
	}}
	entries, failures, _ := Diff(base, cur, DiffOptions{MaxRegress: 0.35, AllocSlack: 0.005})
	if failures != 2 {
		t.Fatalf("failures = %d, want 2 (hot and warm strict, growth within slack)", failures)
	}
	if e := entryByName(t, entries, "hot"); !e.Failed {
		t.Errorf("hot must stay a hard zero-alloc gate: %+v", e)
	}
	if e := entryByName(t, entries, "warm"); !e.Failed {
		t.Errorf("warm (137 allocs) must stay strict under 0.5%% slack: %+v", e)
	}
	if e := entryByName(t, entries, "growth"); e.Failed {
		t.Errorf("growth +8/2072 must pass under 0.5%% slack: %+v", e)
	}
	// Beyond the budget still fails.
	cur.Results[2].AllocsPerOp = 2083
	_, failures, _ = Diff(base, cur, DiffOptions{MaxRegress: 0.35, AllocSlack: 0.005})
	if failures != 3 {
		t.Fatalf("failures = %d, want 3 (growth +11 exceeds the 10-alloc budget)", failures)
	}
}

func TestDiffExemptMissingDoesNotFail(t *testing.T) {
	base := &Run{Results: []Result{{Name: "parallel_w8", NsPerOp: 100}}}
	cur := &Run{Results: []Result{}}
	entries, failures, _ := Diff(base, cur, DiffOptions{
		MaxRegress: 0.35, Exempt: regexp.MustCompile("^parallel_"),
	})
	if failures != 0 {
		t.Fatalf("exempt benchmark missing from current must not fail (failures=%d)", failures)
	}
	if e := entryByName(t, entries, "parallel_w8"); e.Verdict != "exempt (missing)" {
		t.Errorf("verdict = %q", e.Verdict)
	}
}

// Exempt families skip only the ns/op gate: an allocs/op increase beyond
// their floor-scaled 4% slack still fails them, a 0-alloc exempt baseline
// stays strict, and the same increase that an exempt family absorbs still
// fails a serial benchmark under AllocSlack.
func TestDiffExemptAllocsFence(t *testing.T) {
	base := &Run{Results: []Result{
		{Name: "server_eval_rps", NsPerOp: 100, AllocsPerOp: 120},
		{Name: "server_stream_rps_w1", NsPerOp: 100, AllocsPerOp: 4500},
		{Name: "fleet_query_scatter_3shard", NsPerOp: 100, AllocsPerOp: 4500},
		{Name: "parallel_eval_table_w2", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "fleet_replication_lag_hints", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "parallel_eval_table_w1", NsPerOp: 100, AllocsPerOp: 1517},
		{Name: "query_window_n512", NsPerOp: 100, AllocsPerOp: 1517},
	}}
	cur := &Run{Results: []Result{
		{Name: "server_eval_rps", NsPerOp: 1000, AllocsPerOp: 125},           // one past ⌊120×0.04⌋ = 4
		{Name: "server_stream_rps_w1", NsPerOp: 50, AllocsPerOp: 4680},       // within ⌊4500×0.04⌋ = 180
		{Name: "fleet_query_scatter_3shard", NsPerOp: 90, AllocsPerOp: 4681}, // one past the budget
		{Name: "parallel_eval_table_w2", NsPerOp: 900, AllocsPerOp: 0},       // ns/op drift only
		{Name: "fleet_replication_lag_hints", NsPerOp: 100, AllocsPerOp: 1},  // 0-alloc floor stays strict
		{Name: "parallel_eval_table_w1", NsPerOp: 100, AllocsPerOp: 1542},    // +25 ≤ ⌊1517×0.04⌋ = 60
		{Name: "query_window_n512", NsPerOp: 100, AllocsPerOp: 1542},         // +25 > ⌊1517×0.005⌋ = 7
	}}
	entries, failures, _ := Diff(base, cur, DiffOptions{
		MaxRegress: 0.35, AllocSlack: 0.005,
		Exempt: regexp.MustCompile("^(parallel|server|fleet)_"),
	})
	want := map[string]bool{
		"server_eval_rps": true, "server_stream_rps_w1": false,
		"fleet_query_scatter_3shard": true, "parallel_eval_table_w2": false,
		"fleet_replication_lag_hints": true, "parallel_eval_table_w1": false,
		"query_window_n512": true,
	}
	if failures != 4 {
		t.Fatalf("failures = %d, want 4 (server_eval_rps, fleet_query_scatter_3shard, fleet_replication_lag_hints and query_window_n512 allocs)", failures)
	}
	for name, fail := range want {
		e := entryByName(t, entries, name)
		if e.Failed != fail {
			t.Errorf("%s: failed = %v, want %v (%s)", name, e.Failed, fail, e.Verdict)
		}
		if fail && !strings.Contains(e.Verdict, "allocs/op") {
			t.Errorf("%s: verdict %q should name allocs/op", name, e.Verdict)
		}
		if !fail && e.Verdict != "exempt" {
			t.Errorf("%s: verdict %q, want exempt", name, e.Verdict)
		}
	}
}

func TestDiffNilExemptGatesEverything(t *testing.T) {
	base := &Run{Results: []Result{{Name: "parallel_w8", NsPerOp: 100}}}
	cur := &Run{Results: []Result{{Name: "parallel_w8", NsPerOp: 1000}}}
	_, failures, _ := Diff(base, cur, DiffOptions{MaxRegress: 0.35})
	if failures != 1 {
		t.Fatalf("nil Exempt must gate every name (failures=%d)", failures)
	}
}
