package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"olgapro/internal/server/wire"
)

// The request decode of stream lines, eval bodies and the two bounded-query
// bodies is a fast path in front of encoding/json (wire.DecodeStreamLine,
// wire.DecodeEvalRequest, wire.DecodeQueryRequest,
// wire.DecodeQueryPartialsRequest). These targets hold it to
// encoding/json's strict decode alone on arbitrary bytes: the same
// accept/reject answer, the same decoded value (floats by bits), the same
// error text, and no encoding/json call on a document the fast path
// accepted. The decode targets start dirty, as reused storage does in the
// server. The committed seed corpora cover canonical lines, case-variant
// and escaped keys, unknown types, duplicate keys, null, -0, 1e400, 01,
// .5, a trailing ] or } (which dec.More accepts), nested mixtures, a BOM
// and invalid UTF-8; the query corpora add the benchmark-shaped body,
// null in each position, escaped and control-byte strings, every stage,
// require_seq and min_seq.

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

// dirtyQuery and dirtyPartials are decoded into the query targets before
// the fuzzed body: every row key, every stage and require_seq or min_seq.
const (
	dirtyQuery = `{"udf":"d","seed":9,"rows":[{"input":[{"type":"normal","mu":1,"sigma":2}],"group":"x","udf":"e"},` +
		`{"input":[{"type":"uniform","lo":-1,"hi":3},{"type":"constant","value":-0}],"group":"y"}],` +
		`"predicate":{"a":0,"b":1,"theta":0.5},"window":{"size":2,"aggs":[{"kind":"count"}]},` +
		`"group_by":{"keys":["g"],"aggs":[{"kind":"avg","attr":"y"}]},"topk":{"k":2,"by":"y"},"require_seq":{"d":3}}`
	dirtyPartials = `{"udf":"d","seed":9,"min_seq":4,"rows":[{"ord":3,"input":[{"type":"gamma","shape":2,"scale":1,"loc":5}],"group":"x"},` +
		`{"ord":7,"input":[{"type":"exponential","rate":2},{"type":"normal","mu":-0,"sigma":1}]}],` +
		`"predicate":{"a":0,"b":1,"theta":0.5},"window":{"size":2,"aggs":[{"kind":"count"}]},` +
		`"group_by":{"keys":["g"],"aggs":[{"kind":"avg","attr":"y"}]},"topk":{"k":2,"by":"y"}}`
)

func FuzzDecodeQueryRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzQueryDecode(t, data, dirtyQuery, "query request", wire.DecodeQueryRequest, sameQuery)
	})
}

func FuzzDecodeQueryPartials(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzQueryDecode(t, data, dirtyPartials, "partials request", wire.DecodeQueryPartialsRequest, samePartials)
	})
}

// fuzzQueryDecode decodes data into a fresh value by encoding/json alone,
// and through queryBody.decode into a value and scratch that first decoded
// dirty, and requires the two to agree.
func fuzzQueryDecode[T any](t *testing.T, data []byte, dirty, what string,
	fast func([]byte, *T, *wire.QueryScratch) bool, same func(a, b *T) bool) {
	var ref T
	refErr := decodeStrict(bytes.NewReader(data), &ref)

	body := new(queryBody[T])
	if !fast([]byte(dirty), &body.req, &body.sc) {
		t.Fatal("fast path refused the dirty body")
	}
	err := body.decode(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data)), what, fast)
	fellBack := body.rd.Size() != 0

	if refErr != nil {
		if err == nil || err.Error() != "bad "+what+": "+refErr.Error() {
			t.Fatalf("encoding/json refuses %q with %v, server decode gives %v", data, refErr, err)
		}
	} else {
		if err != nil {
			t.Fatalf("encoding/json accepts %q, server decode refuses: %v", data, err)
		}
		if !same(&body.req, &ref) {
			t.Fatalf("%q: server decode %+v, encoding/json %+v", data, body.req, ref)
		}
	}
	var probe T
	if fast(data, &probe, new(wire.QueryScratch)) {
		if refErr != nil {
			t.Fatalf("fast path accepts %q, which encoding/json refuses: %v", data, refErr)
		}
		if fellBack {
			t.Fatalf("fast path accepts %q, but the server decode called encoding/json", data)
		}
	}
}

// sameQuery compares decoded query requests: rows field by field, floats
// by bits, and the rest by their encoding, which keeps a float's bits.
func sameQuery(a, b *wire.QueryRequest) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if ra.Group != rb.Group || ra.UDF != rb.UDF || !sameInput(ra.Input, rb.Input) {
			return false
		}
	}
	ca, cb := *a, *b
	ca.Rows, cb.Rows = nil, nil
	return sameEncoding(ca, cb)
}

// samePartials is sameQuery for partials requests.
func samePartials(a, b *wire.QueryPartialsRequest) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if ra.Ord != rb.Ord || ra.Group != rb.Group || !sameInput(ra.Input, rb.Input) {
			return false
		}
	}
	ca, cb := *a, *b
	ca.Rows, cb.Rows = nil, nil
	return sameEncoding(ca, cb)
}

func sameEncoding(a, b any) bool {
	ea, err := json.Marshal(a)
	if err != nil {
		panic(err)
	}
	eb, err := json.Marshal(b)
	if err != nil {
		panic(err)
	}
	return bytes.Equal(ea, eb)
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
