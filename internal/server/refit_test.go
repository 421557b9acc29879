package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"olgapro/internal/core"
	"olgapro/internal/server/wire"
)

// refitPoint is a learn input centred at (x, y) with σ 0.05.
func refitPoint(x, y float64) wire.InputSpec {
	return wire.InputSpec{{Type: "normal", Mu: x, Sigma: 0.05}, {Type: "normal", Mu: y, Sigma: 0.05}}
}

// frozenEval200 posts a seeded frozen eval and fails unless it answers 200.
func frozenEval200(t *testing.T, baseURL, name string, in wire.InputSpec, seed int) []byte {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/udfs/"+name+"/eval", map[string]any{
		"input": in, "seed": seed, "learn": false,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frozen eval: %d %s", resp.StatusCode, body)
	}
	return body
}

// TestRefitModelServesRestoresAndBoots learns poly/smooth2d at ε 0.05 on
// an 8×8 grid 8 apart. Its retrains move the length scale far past the
// grid spacing, so refits need diagonal jitter. After each of the 40
// learns, a frozen eval on the owner, the same eval on a replica restored
// from GET /v1/udfs/s/snapshot, and the same eval on a server booted from
// the owner's POST /v1/snapshot directory all answer 200 with the same
// bytes.
func TestRefitModelServesRestoresAndBoots(t *testing.T) {
	dir := t.TempDir()
	owner, ts := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	replica, tsReplica := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/udfs", map[string]any{
		"udf": "poly/smooth2d", "name": "s", "eps": 0.05, "delta": 0.1,
		"warmup": []wire.InputSpec{refitPoint(-1, -1)}, "warmup_seed": 3,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	entry, _ := owner.reg.Get("s")
	for j := 0; j < 40; j++ {
		in := refitPoint(float64(8*(j%8)), float64(8*(j/8)))
		resp, body := postJSON(t, ts.URL+"/v1/udfs/s/eval", map[string]any{"input": in, "seed": j + 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("learn %d: %d %s", j, resp.StatusCode, body)
		}
		want := frozenEval200(t, ts.URL, "s", in, j+1)

		resp, err := http.Get(ts.URL + "/v1/udfs/s/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		var data bytes.Buffer
		_, err = data.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("learn %d: snapshot fetch: %d %v", j, resp.StatusCode, err)
		}
		snap, err := core.ReadSnapshot(&data)
		if err != nil {
			t.Fatalf("learn %d: read snapshot: %v", j, err)
		}
		if err := replica.reg.InstallReplica(entry.Spec(), snap); err != nil {
			t.Fatalf("learn %d: restore: %v", j, err)
		}
		if got := frozenEval200(t, tsReplica.URL, "s", in, j+1); !bytes.Equal(got, want) {
			t.Fatalf("learn %d: restored replica answers\n%s\nowner\n%s", j, got, want)
		}

		if resp, body := postJSON(t, ts.URL+"/v1/snapshot", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("learn %d: snapshot: %d %s", j, resp.StatusCode, body)
		}
		rebooted, err := New(Config{SnapshotDir: dir, Workers: 1})
		if err != nil {
			t.Fatalf("learn %d: reboot: %v", j, err)
		}
		tsRebooted := httptest.NewServer(rebooted.Handler())
		got := frozenEval200(t, tsRebooted.URL, "s", in, j+1)
		tsRebooted.Close()
		rebooted.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("learn %d: rebooted shard answers\n%s\nowner\n%s", j, got, want)
		}
	}
}

// TestBootsSnapshotOfJitteredRefit boots a snapshot directory written by
// the same recipe after 16 learns (39 points, model seq 17) under the
// earlier rule, where Fit factored a jittered Gram matrix and dropped the
// jitter: restoring replayed the points without it, failed at point 32,
// and kept the shard from booting. Replayed under the jitter its points
// determine, it boots and serves.
func TestBootsSnapshotOfJitteredRefit(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "jittered-refit")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{SnapshotDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	e, ok := s.reg.Get("s")
	if !ok {
		t.Fatal("UDF \"s\" not restored")
	}
	if e.Points() != 39 || e.Seq() != 17 {
		t.Fatalf("restored %d points at seq %d, want 39 at seq 17", e.Points(), e.Seq())
	}
	frozenEval200(t, ts.URL, "s", refitPoint(32, 8), 1)
}
