package server

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"testing"
)

// Served-bytes goldens: FNV-64a digests of whole HTTP response bodies for
// the smooth 2-D UDF after registerSmooth's fixed warm-up. They pin what
// the server's own per-tuple RNGs feed the evaluator — the learn path's
// writer-loop generator, the stream workers' generators and a clone slot's
// generator — which core's golden digests, seeded inside core, cannot see.
const (
	goldenServedLearnStream  = 0x2202821c8155a843
	goldenServedFrozenStream = 0x64505de1baf90595
	goldenServedFrozenEval   = 0xae9a99bab862e80e
	goldenServedQuery        = 0x6a57f8c25aeb87b7
)

func bodyDigest(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// TestServedBytesGolden replays a learn stream, a frozen stream fanned out
// over two workers, a single frozen eval and a bounded query, and compares
// each response body's digest with the recorded one.
func TestServedBytesGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	name := registerSmooth(t, ts.URL)
	streamURL := fmt.Sprintf("%s/v1/udfs/%s/stream", ts.URL, name)
	check := func(what string, status int, body []byte, want uint64) {
		t.Helper()
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, status, body)
		}
		if got := bodyDigest(body); got != want {
			t.Errorf("%s digest = %#x, want %#x", what, got, want)
		}
	}

	status, raw, _ := streamNDJSON(t, streamURL+"?seed=11", testInputs(12))
	check("learn stream", status, []byte(raw), goldenServedLearnStream)

	status, raw, _ = streamNDJSON(t, streamURL+"?learn=false&seed=5", testInputs(24))
	check("frozen stream", status, []byte(raw), goldenServedFrozenStream)

	resp, body := postJSON(t, fmt.Sprintf("%s/v1/udfs/%s/eval", ts.URL, name), map[string]any{
		"input": testInputs(3)[2], "seed": 7, "learn": false,
	})
	check("frozen eval", resp.StatusCode, body, goldenServedFrozenEval)

	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"udf": name, "rows": queryRows(12, 3), "seed": 8,
		"group_by": map[string]any{
			"keys": []string{"g"},
			"aggs": []map[string]any{{"kind": "count"}, {"kind": "avg", "attr": "y"}},
		},
		"topk": map[string]any{"k": 2, "by": "avg_y", "desc": true},
	})
	check("query", resp.StatusCode, body, goldenServedQuery)
}
