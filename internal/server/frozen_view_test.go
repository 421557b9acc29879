package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"olgapro/internal/core"
	"olgapro/internal/exec"
	"olgapro/internal/query"
	"olgapro/internal/server/wire"
)

// ndjson renders input lines as a stream request body.
func ndjson(t *testing.T, lines []wire.InputSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, in := range lines {
		b, err := json.Marshal(streamLine{Input: in})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// post sends one request from any goroutine and returns its status and
// body; a transport error comes back as the error.
func post(url, contentType string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// driftLines are n inputs walking diagonally from (-1, 2) to (2, -1), far
// beyond where the warm-up learned, so learning them moves the model.
func driftLines(n int) []wire.InputSpec {
	lines := make([]wire.InputSpec, n)
	for i := range lines {
		p := float64(i) / float64(n-1)
		lines[i] = wire.InputSpec{
			{Type: "normal", Mu: -1 + 3*p, Sigma: 0.1},
			{Type: "normal", Mu: 2 - 3*p, Sigma: 0.1},
		}
	}
	return lines
}

// frozenEvalBody is a frozen single-eval request for input in.
func frozenEvalBody(t *testing.T, in wire.InputSpec, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"input": in, "learn": false, "seed": seed})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFrozenReadNotBlockedByWriter holds the learner token in a closure
// that never returns on its own: a frozen eval at the published sequence —
// whose frozen model nobody has built yet — must still complete, because
// building it and serving from it never wait for the token.
func TestFrozenReadNotBlockedByWriter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	name := registerSmooth(t, ts.URL)
	e, _ := s.reg.Get(name)
	if got := e.builds.Load(); got != 0 {
		t.Fatalf("%d frozen builds before any read, want 0", got)
	}
	block := make(chan struct{})
	entered := make(chan struct{})
	go e.withWriter(context.Background(), func(*core.Evaluator) error {
		close(entered)
		<-block
		return nil
	})
	defer close(block)
	<-entered

	url := fmt.Sprintf("%s/v1/udfs/%s/eval?timeout_ms=5000", ts.URL, name)
	status, body, err := post(url, "application/json", frozenEvalBody(t, testInputs(1)[0], 3))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("frozen eval behind a held learner token: %d %s", status, body)
	}
	if got := e.builds.Load(); got != 1 {
		t.Fatalf("%d frozen builds, want 1", got)
	}
	status, body, err = post(fmt.Sprintf("%s/v1/udfs/%s/stream?learn=false&seed=4&timeout_ms=5000", ts.URL, name),
		"application/x-ndjson", ndjson(t, testInputs(3)))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || bytes.Count(body, []byte("\n")) != 3 || bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("frozen stream behind a held learner token: %d %s", status, body)
	}
}

// TestOneFrozenBuildPerSeq fans concurrent frozen evals and streams over
// four clone slots at one model sequence, then again after a learn moved
// it: every sequence is built into a frozen model exactly once, and the
// slots all answer from it bit-identically.
func TestOneFrozenBuildPerSeq(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	name := registerSmooth(t, ts.URL)
	e, _ := s.reg.Get(name)
	evalURL := fmt.Sprintf("%s/v1/udfs/%s/eval", ts.URL, name)
	streamURL := fmt.Sprintf("%s/v1/udfs/%s/stream?learn=false&seed=8", ts.URL, name)
	inputs := testInputs(6)
	evalBody := frozenEvalBody(t, inputs[0], 5)
	streamBody := ndjson(t, inputs)

	burst := func() (evals, streams [][]byte) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		errs := make(chan error, 12)
		for i := 0; i < 6; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				status, body, err := post(evalURL, "application/json", evalBody)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("frozen eval: %d %s", status, body)
				}
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				evals = append(evals, body)
				mu.Unlock()
			}()
			go func() {
				defer wg.Done()
				status, body, err := post(streamURL, "application/x-ndjson", streamBody)
				if err == nil && (status != http.StatusOK || bytes.Contains(body, []byte(`"error"`))) {
					err = fmt.Errorf("frozen stream: %d %s", status, body)
				}
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				streams = append(streams, body)
				mu.Unlock()
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for _, b := range evals[1:] {
			if !bytes.Equal(b, evals[0]) {
				t.Fatalf("frozen evals at one seq differ:\n%s\n%s", evals[0], b)
			}
		}
		for _, b := range streams[1:] {
			if !bytes.Equal(b, streams[0]) {
				t.Fatalf("frozen streams at one seq differ")
			}
		}
		return evals, streams
	}

	seq0 := e.Seq()
	evals0, _ := burst()
	if got := e.builds.Load(); got != 1 {
		t.Fatalf("seq %d: %d frozen builds, want 1", seq0, got)
	}
	learnURL := fmt.Sprintf("%s/v1/udfs/%s/stream?seed=1", ts.URL, name)
	if status, raw, _ := streamNDJSON(t, learnURL, driftLines(24)); status != http.StatusOK || e.Seq() == seq0 {
		t.Fatalf("learn stream: %d, model seq %d → %d: %s", status, seq0, e.Seq(), raw)
	}
	evals1, _ := burst()
	if got := e.builds.Load(); got != 2 {
		t.Fatalf("seq %d: %d frozen builds in all, want 2", e.Seq(), got)
	}
	if bytes.Equal(evals0[0], evals1[0]) {
		t.Fatal("a frozen eval after learning answered exactly as before it")
	}
}

// TestSnapshotEncodedOncePerSeq fetches the replication snapshot three
// times concurrently at one model sequence: one encode serves all three
// with identical bodies, equal to encoding the learner's own snapshot.
func TestSnapshotEncodedOncePerSeq(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	e, _ := s.reg.Get(name)
	url := fmt.Sprintf("%s/v1/udfs/%s/snapshot", ts.URL, name)
	bodies := make([][]byte, 3)
	var wg sync.WaitGroup
	errs := make(chan error, len(bodies))
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if bodies[i], err = io.ReadAll(resp.Body); err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("snapshot GET: %d %s", resp.StatusCode, bodies[i])
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.encodes.Load(); got != 1 {
		t.Fatalf("%d snapshot encodes for three GETs at one seq, want 1", got)
	}
	var want bytes.Buffer
	if err := e.withWriter(context.Background(), func(ev *core.Evaluator) error {
		snap, err := ev.Snapshot()
		if err != nil {
			return err
		}
		snap.ModelSeq = e.Seq()
		return core.WriteSnapshot(&want, snap)
	}); err != nil {
		t.Fatal(err)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, want.Bytes()) {
			t.Fatalf("GET %d: %d snapshot bytes differ from the learner's own encode (%d bytes)", i, len(b), want.Len())
		}
	}
}

// TestInvalidDistributionIsBadSpec sends a line whose distribution the wire
// layer decodes but cannot build (σ = 0) to every tuple surface: each must
// answer bad_spec, a client error, never internal.
func TestInvalidDistributionIsBadSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	const input = `[{"type":"normal","mu":0.3,"sigma":0},{"type":"normal","mu":0.5,"sigma":0.1}]`

	resp, body := do(t, "POST", ts.URL+"/v1/udfs/"+name+"/eval", "application/json", `{"input":`+input+`}`)
	wantEnvelope(t, resp, body, http.StatusBadRequest, wire.CodeBadSpec)

	for _, learn := range []string{"true", "false"} {
		resp, raw := do(t, "POST", ts.URL+"/v1/udfs/"+name+"/stream?seed=1&learn="+learn,
			"application/x-ndjson", `{"input":`+input+"}\n")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("learn=%s stream: %d %s", learn, resp.StatusCode, raw)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var last wire.StreamResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("learn=%s: bad terminal line %q: %v", learn, lines[len(lines)-1], err)
		}
		if last.ErrorCode != wire.CodeBadSpec {
			t.Fatalf("learn=%s stream: terminal line %+v, want error_code %s", learn, last, wire.CodeBadSpec)
		}
	}
}

// TestConcurrentLearnAndFrozenReads runs a learning stream beside frozen
// evals and frozen streams on one UDF, under the race detector in `make
// race`: the learner keeps publishing views while readers build and repoint
// at them. Every read must succeed, and a read issued after the learn
// finished must answer from its final model.
func TestConcurrentLearnAndFrozenReads(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 3})
	name := registerSmooth(t, ts.URL)
	e, _ := s.reg.Get(name)
	base := fmt.Sprintf("%s/v1/udfs/%s", ts.URL, name)
	learnLines := driftLines(24)
	readBody := frozenEvalBody(t, testInputs(1)[0], 2)
	streamBody := ndjson(t, testInputs(4))

	errs := make(chan error, 64)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var status int
				var body []byte
				var err error
				if (r+i)%2 == 0 {
					status, body, err = post(base+"/eval", "application/json", readBody)
				} else {
					status, body, err = post(base+"/stream?learn=false&seed=6", "application/x-ndjson", streamBody)
					if err == nil && bytes.Contains(body, []byte(`"error"`)) {
						status = 0
					}
				}
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("frozen read during learning: %d %s", status, body)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	seq0 := e.Seq()
	status, raw, err := post(base+"/stream?seed=3", "application/x-ndjson", ndjson(t, learnLines))
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err != nil || status != http.StatusOK || strings.Contains(string(raw), `"error"`) {
		t.Fatalf("learn stream: %d %s %v", status, raw, err)
	}
	if e.Seq() == seq0 {
		t.Fatal("the learn stream never moved the model sequence")
	}

	// Read-after-learn: the next frozen eval reads the final view, exactly
	// as a fresh clone of the learner answers.
	status, got, err := post(base+"/eval", "application/json", readBody)
	if err != nil || status != http.StatusOK {
		t.Fatalf("frozen eval after learning: %d %s %v", status, got, err)
	}
	vec, err := testInputs(1)[0].Vector()
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	if err := e.withWriter(context.Background(), func(ev *core.Evaluator) error {
		c, err := ev.CloneFrozen()
		if err != nil {
			return err
		}
		rng := query.NewTupleRand()
		rng.Seed(exec.TupleSeed(2, 0))
		out, err := query.Borrowed(query.NewEvaluatorEngine(c), vec, rng)
		if err != nil {
			return err
		}
		want = appendResult(nil, 0, out, e.cfg.Eps)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Fatalf("frozen eval after learning:\n%s\nfresh clone of the learner:\n%s", got, want)
	}
}
