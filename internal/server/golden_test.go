package server

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"testing"

	"olgapro/internal/server/wire"
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

	goldenServedGrowingLearnStream = 0xbfbd4c38648de2ee
)

func bodyDigest(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// TestServedBytesGolden replays a learn stream, a frozen stream fanned out
// over two workers, a single frozen eval, a bounded query and a learn
// stream that adds training points and retrains, and compares each
// response body's digest with the recorded one.
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

	// The learn stream above stays inside the warm-up's region and adds no
	// point. This one walks out of it, so the digest pins served lines that
	// grow the training set and retrain the model. It runs last: the model
	// it leaves behind cannot move the four digests above.
	before := udfStats(t, ts.URL, name)
	rng := rand.New(rand.NewSource(41))
	walk := make([]wire.InputSpec, 12)
	for i := range walk {
		walk[i] = wire.InputSpec{
			{Type: "normal", Mu: 0.8 + 0.3*float64(i) + 0.1*rng.Float64(), Sigma: 0.12},
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.12},
		}
	}
	status, raw, lines := streamNDJSON(t, streamURL+"?seed=13", walk)
	added := 0
	for _, l := range lines {
		added += l.PointsAdded
	}
	after := udfStats(t, ts.URL, name)
	t.Logf("growing learn stream: %d points added (%d → %d), retrainings %d → %d, digest %#x",
		added, before.TrainingPoints, after.TrainingPoints, before.Retrainings, after.Retrainings, bodyDigest([]byte(raw)))
	if added == 0 || after.TrainingPoints != before.TrainingPoints+added {
		t.Errorf("growing learn stream added %d points, training points %d → %d", added, before.TrainingPoints, after.TrainingPoints)
	}
	if after.Retrainings <= before.Retrainings {
		t.Errorf("growing learn stream did not retrain: retrainings %d → %d", before.Retrainings, after.Retrainings)
	}
	check("growing learn stream", status, []byte(raw), goldenServedGrowingLearnStream)
}

// udfStats returns the /v1/stats record of the named UDF.
func udfStats(t *testing.T, baseURL, name string) UDFStats {
	t.Helper()
	var stats wire.StatsResponse
	if resp := getJSON(t, baseURL+"/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	for _, st := range stats.UDFs {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("stats has no UDF %q", name)
	return UDFStats{}
}
