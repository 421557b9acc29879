package server

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"olgapro/internal/server/wire"
)

// The request decode of stream lines and eval bodies is a fast path in
// front of encoding/json (wire.DecodeStreamLine, wire.DecodeEvalRequest).
// These targets hold it to encoding/json's strict decode alone on arbitrary
// bytes: the same accept/reject answer, the same decoded value (floats by
// bits), the same error text, and no encoding/json call on a document the
// fast path accepted. The decode targets start dirty, as reused storage
// does in the server. The committed seed corpora cover canonical lines,
// case-variant and escaped keys, unknown types, duplicate keys, null, -0,
// 1e400, 01, .5, a trailing ] or } (which dec.More accepts), nested
// mixtures, a BOM and invalid UTF-8.

// dirtyLine is decoded into every target before the fuzzed input, so
// state a decode fails to reset shows up as a value mismatch.
const dirtyLine = `{"input":[{"type":"gamma","mu":1,"sigma":2,"lo":3,"hi":4,"shape":5,"scale":6,"loc":7,"rate":8,"value":9},` +
	`{"type":"normal","mu":-1,"sigma":0.5},{"type":"constant","value":-0}]}`

func FuzzDecodeStreamLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var ref streamLine
		refErr := decodeStrict(bytes.NewReader(line), &ref)

		var sl streamLine
		if !wire.DecodeStreamLine([]byte(dirtyLine), &sl) {
			t.Fatal("fast path refused the dirty line")
		}
		dim := len(ref.Input)
		var rd bytes.Reader
		err := decodeStreamLine(&rd, &sl, line, dim)
		fellBack := rd.Size() != 0

		if refErr != nil {
			if err == nil || err.Error() != "bad stream line: "+refErr.Error() {
				t.Fatalf("encoding/json refuses %q with %v, server decode gives %v", line, refErr, err)
			}
		} else {
			if err != nil {
				t.Fatalf("encoding/json accepts %q, server decode refuses: %v", line, err)
			}
			if !sameInput(sl.Input, ref.Input) {
				t.Fatalf("%q: server decode %+v, encoding/json %+v", line, sl.Input, ref.Input)
			}
		}
		var probe streamLine
		if wire.DecodeStreamLine(line, &probe) {
			if refErr != nil {
				t.Fatalf("fast path accepts %q, which encoding/json refuses: %v", line, refErr)
			}
			if fellBack {
				t.Fatalf("fast path accepts %q, but the server decode called encoding/json", line)
			}
		}
	})
}

func FuzzDecodeEvalBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref wire.EvalRequest
		refErr := decodeStrict(bytes.NewReader(data), &ref)

		body := new(evalBody)
		if !wire.DecodeEvalRequest([]byte(`{"seed":-3,"learn":true,"input":[{"type":"uniform","lo":1,"hi":2},{"type":"exponential","rate":4}]}`), &body.req) {
			t.Fatal("fast path refused the dirty body")
		}
		err := body.decode(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data)))
		fellBack := body.rd.Size() != 0

		if refErr != nil {
			if err == nil || err.Error() != "bad eval request: "+refErr.Error() {
				t.Fatalf("encoding/json refuses %q with %v, server decode gives %v", data, refErr, err)
			}
		} else {
			got := &body.req
			if err != nil {
				t.Fatalf("encoding/json accepts %q, server decode refuses: %v", data, err)
			}
			if !sameInput(got.Input, ref.Input) || got.Seed != ref.Seed ||
				(got.Learn == nil) != (ref.Learn == nil) || (got.Learn != nil && *got.Learn != *ref.Learn) {
				t.Fatalf("%q: server decode %+v, encoding/json %+v", data, *got, ref)
			}
		}
		var probe wire.EvalRequest
		if wire.DecodeEvalRequest(data, &probe) {
			if refErr != nil {
				t.Fatalf("fast path accepts %q, which encoding/json refuses: %v", data, refErr)
			}
			if fellBack {
				t.Fatalf("fast path accepts %q, but the server decode called encoding/json", data)
			}
		}
	})
}

// sameInput compares decoded input specs field by field, floats by bits.
func sameInput(a, b wire.InputSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameSpec(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameSpec(a, b wire.DistSpec) bool {
	fa := []float64{a.Mu, a.Sigma, a.Lo, a.Hi, a.Shape, a.Scale, a.Loc, a.Rate, a.Value}
	fb := []float64{b.Mu, b.Sigma, b.Lo, b.Hi, b.Shape, b.Scale, b.Loc, b.Rate, b.Value}
	return a.Type == b.Type && sameBits(fa, fb) && sameBits(a.Weights, b.Weights) &&
		sameInput(a.Components, b.Components)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
