package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
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
		e.modelSeq.Store(seq)
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

// TestSnapshotLegacyRestore asserts a pre-rotation layout — bare-spec meta
// JSON plus an unstamped <name>.snap — still restores.
func TestSnapshotLegacyRestore(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	e, ok := s.reg.Get(name)
	if !ok {
		t.Fatal("entry missing")
	}
	var buf bytes.Buffer
	if _, _, err := e.snapshot(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".snap"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(e.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".meta.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{SnapshotDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("legacy restore boot: %v", err)
	}
	defer s2.Close()
	e2, ok := s2.reg.Get(name)
	if !ok {
		t.Fatal("legacy entry not restored")
	}
	if e2.trainPts.Load() != e.trainPts.Load() {
		t.Fatalf("legacy restore has %d training points, want %d", e2.trainPts.Load(), e.trainPts.Load())
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
