package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"olgapro/internal/core"
	"olgapro/internal/server/wire"
)

// TestSnapshotRotation snapshots one UDF 2K+1 times at advancing model
// sequences and asserts the rotation contract: exactly K sequence-stamped
// files survive on disk (the newest K), the meta file points at the newest,
// and a fresh server restores from it resuming the sequence counter.
func TestSnapshotRotation(t *testing.T) {
	const keep = 2
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{SnapshotDir: dir, SnapshotKeep: keep, Workers: 2})
	name := registerSmooth(t, ts.URL)
	e, ok := s.reg.Get(name)
	if !ok {
		t.Fatal("entry missing")
	}

	// Advance the model sequence by hand between snapshots: rotation is a
	// pure function of the sequence stamps, not of how learning bumped them.
	base := e.Seq()
	var seqs []int64
	for i := 0; i < 2*keep+1; i++ {
		seq := base + int64(i) + 1
		if err := e.withWriter(context.Background(), func(*core.Evaluator) error {
			e.publish(seq)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, fmt.Sprintf("%s/v1/udfs/%s/snapshot", ts.URL, name), nil)
		if resp.StatusCode != 200 {
			t.Fatalf("snapshot %d: %d %s", i, resp.StatusCode, body)
		}
		var info snapshotInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.ModelSeq != seq {
			t.Fatalf("snapshot %d stamped seq %d, want %d", i, info.ModelSeq, seq)
		}
		if filepath.Base(info.Path) != seqSnapName(name, seq) {
			t.Fatalf("snapshot %d path %s, want file %s", i, info.Path, seqSnapName(name, seq))
		}
		seqs = append(seqs, seq)
	}

	// Disk state: exactly the newest K stamped files remain.
	files, err := s.snapFiles(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != keep {
		t.Fatalf("disk has %d snapshot files %v, want %d", len(files), files, keep)
	}
	for i, want := range seqs[len(seqs)-keep:] {
		if filepath.Base(files[i]) != seqSnapName(name, want) {
			t.Fatalf("surviving file %d is %s, want %s", i, files[i], seqSnapName(name, want))
		}
	}

	// The meta document names the newest snapshot.
	mb, err := os.ReadFile(s.metaPath(name))
	if err != nil {
		t.Fatal(err)
	}
	var meta snapMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		t.Fatal(err)
	}
	newest := seqs[len(seqs)-1]
	if meta.Spec == nil || meta.Spec.Name != name || meta.ModelSeq != newest ||
		meta.Snapshot != seqSnapName(name, newest) {
		t.Fatalf("meta %+v, want spec %q @ seq %d → %s", meta, name, newest, seqSnapName(name, newest))
	}

	// Record a frozen replay, then restart from disk: the restored server
	// serves the same model at the same resumed sequence.
	streamURL := fmt.Sprintf("%s/v1/udfs/%s/stream?learn=false&seed=6", ts.URL, name)
	_, before, _ := streamNDJSON(t, streamURL, testInputs(6))
	ts.Close()
	s.Close()

	s2, err := New(Config{SnapshotDir: dir, SnapshotKeep: keep, Workers: 2})
	if err != nil {
		t.Fatalf("restore boot: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	e2, ok := s2.reg.Get(name)
	if !ok {
		t.Fatal("restored entry missing")
	}
	if e2.Seq() != newest {
		t.Fatalf("restored model seq %d, want %d", e2.Seq(), newest)
	}
	_, after, _ := streamNDJSON(t,
		fmt.Sprintf("%s/v1/udfs/%s/stream?learn=false&seed=6", ts2.URL, name), testInputs(6))
	if before != after {
		t.Fatalf("replay from newest snapshot diverged:\n%s\nvs\n%s", before, after)
	}
}

// snapshotNow persists the entry through the snapshot endpoint and returns
// the model sequence it was stamped with.
func snapshotNow(t *testing.T, baseURL, name string) int64 {
	t.Helper()
	resp, body := postJSON(t, fmt.Sprintf("%s/v1/udfs/%s/snapshot", baseURL, name), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("snapshot: %d %s", resp.StatusCode, body)
	}
	var info snapshotInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info.ModelSeq
}

// writeMeta overwrites the UDF's meta document.
func writeMeta(t *testing.T, dir, name string, meta any) {
	t.Helper()
	mb, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".meta.json"), mb, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestoresNewestStamped asserts the restore rule: boot takes the
// newest stamped file even when the meta names an older one — the state a
// crash between the snapshot write and the meta write, or two racing
// snapshot requests, leave behind. Restoring the meta's file would resume
// at seq N while replicas already hold N+1, so the owner's next learned
// point would become a different model at N+1 that replicas skip.
func TestSnapshotRestoresNewestStamped(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{SnapshotDir: dir, SnapshotKeep: 4, Workers: 2})
	name := registerSmooth(t, ts.URL)
	e, ok := s.reg.Get(name)
	if !ok {
		t.Fatal("entry missing")
	}
	frozenURL := func(base string) string {
		return fmt.Sprintf("%s/v1/udfs/%s/stream?learn=false&seed=6", base, name)
	}
	oldSeq := snapshotNow(t, ts.URL, name)
	_, atOld, _ := streamNDJSON(t, frozenURL(ts.URL), testInputs(6))

	// Learn far from the warm-up so the model changes, then snapshot again.
	far := make([]wire.InputSpec, 4)
	for i := range far {
		far[i] = wire.InputSpec{{Type: "normal", Mu: 1.5 + 0.3*float64(i), Sigma: 0.1},
			{Type: "normal", Mu: -0.8, Sigma: 0.1}}
	}
	if status, _, _ := streamNDJSON(t, fmt.Sprintf("%s/v1/udfs/%s/stream?seed=3", ts.URL, name), far); status != 200 {
		t.Fatalf("learn stream: %d", status)
	}
	newSeq := snapshotNow(t, ts.URL, name)
	if newSeq <= oldSeq {
		t.Fatalf("learning left the model at seq %d (was %d)", newSeq, oldSeq)
	}
	_, atNew, _ := streamNDJSON(t, frozenURL(ts.URL), testInputs(6))
	if atNew == atOld {
		t.Fatal("learned model answers like the old one; the test cannot tell them apart")
	}
	spec := e.Spec()
	ts.Close()
	s.Close()

	// The meta names the older file, as after a crash before its rewrite.
	writeMeta(t, dir, name, snapMeta{Spec: &spec, ModelSeq: oldSeq, Snapshot: seqSnapName(name, oldSeq)})
	s2, err := New(Config{SnapshotDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("restore boot: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	e2, ok := s2.reg.Get(name)
	if !ok {
		t.Fatal("restored entry missing")
	}
	if e2.Seq() != newSeq {
		t.Fatalf("restored model seq %d, want the newest stamped %d", e2.Seq(), newSeq)
	}
	if _, got, _ := streamNDJSON(t, frozenURL(ts2.URL), testInputs(6)); got != atNew {
		t.Fatalf("replay after restore diverged from the newest model:\n%s\nvs\n%s", got, atNew)
	}
}

// TestSnapshotLegacyRestore asserts the older directory layouts are refused
// or ignored, never half-read: a bare-spec meta fails the boot with an error
// naming the meta file, and an unstamped <name>.snap beside a full meta and
// a stamped file plays no part in the restore.
func TestSnapshotLegacyRestore(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{SnapshotDir: dir, Workers: 2})
	name := registerSmooth(t, ts.URL)
	e, ok := s.reg.Get(name)
	if !ok {
		t.Fatal("entry missing")
	}
	seq := snapshotNow(t, ts.URL, name)

	// An unstamped file holding garbage: restoring from it would fail.
	unstamped := filepath.Join(dir, name+".snap")
	if err := os.WriteFile(unstamped, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{SnapshotDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("boot beside an unstamped file: %v", err)
	}
	e2, ok := s2.reg.Get(name)
	if !ok {
		t.Fatal("entry not restored")
	}
	if e2.Seq() != seq || e2.Points() != e.Points() {
		t.Fatalf("restored seq %d with %d points, want seq %d with %d",
			e2.Seq(), e2.Points(), seq, e.Points())
	}
	files, err := s2.snapFiles(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0] != filepath.Join(dir, seqSnapName(name, seq)) {
		t.Fatalf("snapshot files %v, want only the stamped one", files)
	}
	s2.Close()

	// A bare RegisterSpec meta is refused by name.
	writeMeta(t, dir, name, e.Spec())
	if _, err := New(Config{SnapshotDir: dir, Workers: 2}); err == nil ||
		!strings.Contains(err.Error(), name+".meta.json") {
		t.Fatalf("bare-spec meta: err = %v, want a refusal naming the meta file", err)
	}
}

// TestAtomicWriteLeavesNoTempFile drives atomicWrite through each failure
// after its temp file exists — the file sync, the rename, the directory
// sync — plus a failed create and a success, and checks that every failure
// is returned and that no path leaves a .tmp* file behind.
func TestAtomicWriteLeavesNoTempFile(t *testing.T) {
	orig := syncFile
	t.Cleanup(func() { syncFile = orig })
	errSync := errors.New("injected sync failure")
	failSync := func(k int) func(string) string {
		return func(path string) string {
			calls := 0
			syncFile = func(f *os.File) error {
				if calls++; calls == k {
					return errSync
				}
				return orig(f)
			}
			return path
		}
	}
	for _, c := range []struct {
		name    string
		setup   func(path string) string // returns the path to write
		wantErr bool
	}{
		{"success", func(p string) string { return p }, false},
		{"file sync fails", failSync(1), true},
		{"directory sync fails", failSync(2), true},
		{"rename onto a directory fails", func(p string) string {
			if err := os.MkdirAll(filepath.Join(p, "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
			return p
		}, true},
		{"create in a missing directory fails", func(p string) string {
			return filepath.Join(filepath.Dir(p), "missing", "x.snap")
		}, true},
	} {
		syncFile = orig
		dir := t.TempDir()
		path := c.setup(filepath.Join(dir, "x.snap"))
		err := atomicWrite(path, []byte("payload"))
		syncFile = orig
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
		left, gerr := filepath.Glob(filepath.Join(dir, "*.tmp*"))
		if gerr != nil {
			t.Fatal(gerr)
		}
		if len(left) > 0 {
			t.Fatalf("%s: temp files left behind: %v", c.name, left)
		}
		if !c.wantErr {
			if got, err := os.ReadFile(path); err != nil || string(got) != "payload" {
				t.Fatalf("%s: read back %q, %v", c.name, got, err)
			}
		}
	}
}

// TestHugeLengthsRefused checks that lengths arriving from the network or
// from disk are bounded before anything is sized by them: a registration
// with a 2^62 sparse budget answers 400 bad_spec, and a snapshot with such
// a budget, or with a 2^62 ARD dimension, fails a replica install and a boot
// restore with an error instead of a makeslice panic.
func TestHugeLengthsRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/udfs", map[string]any{
		"udf": "poly/smooth2d", "sparse": map[string]any{"budget": 1 << 62},
	})
	wantEnvelope(t, resp, body, http.StatusBadRequest, wire.CodeBadSpec)

	spec := RegisterSpec{Name: "huge", UDF: "poly/smooth2d", Eps: 0.2, Delta: 0.1}
	snaps := map[string]*core.Snapshot{
		"sparse budget": {KernelName: "sqexp", KernelParams: []float64{0, 0}, SparseBudget: 1 << 62, ModelSeq: 1},
		"ard dim":       {KernelName: "sqexp-ard", ARDDim: 1 << 62, KernelParams: []float64{0, 0, 0}, ModelSeq: 1},
	}
	for what, snap := range snaps {
		if err := s.Registry().InstallReplica(spec, snap); err == nil {
			t.Errorf("%s: replica install succeeded", what)
		}
		dir := t.TempDir()
		var buf bytes.Buffer
		if err := core.WriteSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, seqSnapName(spec.Name, snap.ModelSeq)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		writeMeta(t, dir, spec.Name, snapMeta{Spec: &spec, ModelSeq: snap.ModelSeq})
		if s2, err := New(Config{SnapshotDir: dir}); err == nil {
			s2.Close()
			t.Errorf("%s: boot restore succeeded", what)
		}
	}
}
