package wire

import (
	"fmt"
	"strings"
	"testing"
)

// TestFastDecodeAllocs: the fast path decodes a canonical stream line and
// eval body into reused targets without allocating.
func TestFastDecodeAllocs(t *testing.T) {
	line := []byte(`{"input":[{"type":"normal","mu":0.35,"sigma":0.03},{"type":"gamma","shape":2.2,"scale":0.09,"loc":0.01}]}`)
	body := []byte(`{"input":[{"type":"uniform","lo":-1,"hi":2.5}],"seed":7,"learn":false}`)
	var sl StreamLine
	var req EvalRequest
	if !DecodeStreamLine(line, &sl) || !DecodeEvalRequest(body, &req) {
		t.Fatal("fast path refused a canonical document")
	}
	if req.Learn == nil || *req.Learn || req.Seed != 7 || len(req.Input) != 1 || req.Input[0].Hi != 2.5 || len(sl.Input) != 2 || sl.Input[1].Loc != 0.01 {
		t.Fatalf("decoded %+v and %+v", sl, req)
	}
	if n := testing.AllocsPerRun(100, func() { DecodeStreamLine(line, &sl) }); n != 0 {
		t.Errorf("stream line decode allocates %.1f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { DecodeEvalRequest(body, &req) }); n != 0 {
		t.Errorf("eval body decode allocates %.1f times", n)
	}
}

// TestQueryDecodeRowAllocs: a bounded-query body's rows decode into reused
// targets without allocating. Stage specs and each distinct udf or group
// string cost a fixed number of allocations per body, so a long body
// allocates as often as a short one over the same strings.
func TestQueryDecodeRowAllocs(t *testing.T) {
	body := func(n int, partials bool) []byte {
		rows := make([]string, n)
		for i := range rows {
			key := fmt.Sprintf(`"udf":"u%d"`, i%3)
			if partials {
				key = fmt.Sprintf(`"ord":%d`, 2*i)
			}
			rows[i] = fmt.Sprintf(`{"input":[{"type":"normal","mu":0.%d,"sigma":0.15},{"type":"normal","mu":0.5,"sigma":0.15}],"group":"g%02d",%s}`, 3+i%5, i%16, key)
		}
		return []byte(`{"udf":"u0","seed":2,"rows":[` + strings.Join(rows, ",") + `],"predicate":{"a":0.5,"b":5,"theta":0.5},` +
			`"group_by":{"keys":["g"],"aggs":[{"kind":"count"},{"kind":"avg","attr":"y"}]}}`)
	}
	var req QueryRequest
	var preq QueryPartialsRequest
	var sc QueryScratch
	allocs := func(n int, partials bool) float64 {
		b := body(n, partials)
		decode := func() bool { return DecodeQueryRequest(b, &req, &sc) }
		if partials {
			decode = func() bool { return DecodeQueryPartialsRequest(b, &preq, &sc) }
		}
		if !decode() {
			t.Fatalf("fast path refused a canonical %d-row body", n)
		}
		return testing.AllocsPerRun(20, func() { decode() })
	}
	for _, partials := range []bool{false, true} {
		short, long := allocs(16, partials), allocs(256, partials)
		if long != short {
			t.Errorf("partials %v: a 256-row body allocates %.0f times, a 16-row one %.0f", partials, long, short)
		}
	}
	if len(preq.Rows) != 256 || preq.Rows[255].Ord != 510 || preq.Rows[17].Group != "g01" || preq.Rows[3].Input[0].Mu != 0.6 ||
		len(req.Rows) != 256 || req.Rows[4].UDF != "u1" || req.GroupBy == nil || req.Predicate.Theta != 0.5 {
		t.Fatalf("decoded %+v and %+v", req.Rows[:2], preq.Rows[:2])
	}
}
