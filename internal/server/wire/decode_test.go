package wire

import "testing"

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
