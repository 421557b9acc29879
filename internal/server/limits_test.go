package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"olgapro/internal/server/wire"
)

// countingBody is a request body of "{" and spaces, size bytes long, that
// counts the bytes a handler reads from it.
type countingBody struct{ read, size int }

func (b *countingBody) Read(p []byte) (int, error) {
	if b.read >= b.size {
		return 0, io.EOF
	}
	n := min(len(p), b.size-b.read)
	for i := range p[:n] {
		p[i] = ' '
	}
	if b.read == 0 && n > 0 {
		p[0] = '{'
	}
	b.read += n
	return n, nil
}

func (*countingBody) Close() error { return nil }

// checkBodyCap posts a body of size bytes to path through h and returns
// the status, the envelope code and the bytes h read.
func checkBodyCap(t *testing.T, h http.Handler, path string, size int) (int, wire.ErrorCode, int) {
	t.Helper()
	body := &countingBody{size: size}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("POST %s (%d bytes): %d %q is not an envelope", path, size, rec.Code, rec.Body.String())
	}
	return rec.Code, env.Error.Code, body.read
}

// TestRequestBodyCap: every non-stream JSON body over wire.MaxRequestBytes
// is refused 413 over_capacity after reading at most one byte past the
// cap, from a body twice the cap; a body of exactly the cap is read and
// refused for its content.
func TestRequestBodyCap(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	for _, path := range []string{"/v1/udfs", "/v1/udfs/" + name + "/eval", "/v1/query", "/v1/query/partials"} {
		status, code, read := checkBodyCap(t, s.Handler(), path, 2*wire.MaxRequestBytes)
		if status != http.StatusRequestEntityTooLarge || code != wire.CodeOverCapacity || read > wire.MaxRequestBytes+1 {
			t.Errorf("POST %s over the cap: %d %s after reading %d bytes, want 413 over_capacity after ≤ %d",
				path, status, code, read, wire.MaxRequestBytes+1)
		}
	}
	status, code, read := checkBodyCap(t, s.Handler(), "/v1/udfs/"+name+"/eval", wire.MaxRequestBytes)
	if status != http.StatusBadRequest || code != wire.CodeBadSpec || read != wire.MaxRequestBytes {
		t.Errorf("eval at the cap: %d %s after reading %d bytes, want 400 bad_spec after all %d",
			status, code, read, wire.MaxRequestBytes)
	}
}

// TestRequestCapAdmitsLargestQuery: a MaxQueryRows query at the catalog's
// largest arity, every scalar field of every spec at full float64
// precision, fits under the cap and is decoded.
func TestRequestCapAdmitsLargestQuery(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	maxDim := 0
	for _, c := range Catalog() {
		maxDim = max(maxDim, c.Dim)
	}
	const long = -1.2345678901234567e-300 // 24 bytes, the longest float64 spelling
	spec := wire.DistSpec{Type: "exponential", Mu: long, Sigma: long, Lo: long, Hi: long,
		Shape: long, Scale: long, Loc: long, Rate: long, Value: long}
	req := wire.QueryRequest{UDF: strings.Repeat("u", 64), Seed: -1 << 63}
	for i := 0; i < wire.MaxQueryRows; i++ {
		in := make(wire.InputSpec, maxDim)
		for j := range in {
			in[j] = spec
		}
		req.Rows = append(req.Rows, wire.QueryRow{Input: in, Group: strings.Repeat("g", 64), UDF: strings.Repeat("u", 64)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > wire.MaxRequestBytes {
		t.Fatalf("largest query is %d bytes, cap %d", len(body), wire.MaxRequestBytes)
	}
	t.Logf("largest query: %d bytes (%.0f%% of the cap)", len(body), 100*float64(len(body))/wire.MaxRequestBytes)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(body))))
	if rec.Code == http.StatusRequestEntityTooLarge || strings.Contains(rec.Body.String(), "bad query request") {
		t.Fatalf("largest query refused at decode: %d %s", rec.Code, rec.Body.String())
	}
}

// TestNonFiniteSpecRefused: a spec whose samples can overflow float64 is
// refused with the same 400 bad_spec and wire error by a learning eval, a
// frozen eval, a learning and a frozen stream line, and a query row.
func TestNonFiniteSpecRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	const want = "wire: input[0]: wire: normal spec can draw non-finite samples"
	bad := wire.InputSpec{{Type: "normal", Mu: 3, Sigma: 1e308}, {Type: "normal", Mu: 0.5, Sigma: 0.1}}

	check := func(what string, status int, body []byte) {
		t.Helper()
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || status != http.StatusBadRequest ||
			env.Error.Code != wire.CodeBadSpec || !strings.Contains(env.Error.Message, want) {
			t.Errorf("%s: %d %s, want 400 bad_spec with %q", what, status, body, want)
		}
	}
	for _, learn := range []bool{true, false} {
		resp, body := postJSON(t, ts.URL+"/v1/udfs/"+name+"/eval", wire.EvalRequest{Input: bad, Learn: &learn})
		check(fmt.Sprintf("eval learn=%v", learn), resp.StatusCode, body)

		url := fmt.Sprintf("%s/v1/udfs/%s/stream?learn=%s", ts.URL, name, strconv.FormatBool(learn))
		_, raw, results := streamNDJSON(t, url, []wire.InputSpec{bad})
		if len(results) != 1 || results[0].ErrorCode != wire.CodeBadSpec || !strings.Contains(results[0].Error, want) {
			t.Errorf("stream learn=%v: %s, want one terminal bad_spec line with %q", learn, raw, want)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", wire.QueryRequest{UDF: name, Rows: []wire.QueryRow{{Input: bad}}})
	check("query row", resp.StatusCode, body)
}
