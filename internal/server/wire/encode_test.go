package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// jsonLine is the reference: the bytes json.Encoder writes for v, or nil
// when it refuses v.
func jsonLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// checkLine compares an appended line (after prefix) with the reference.
func checkLine(t *testing.T, what string, prefix, got []byte, err error, want []byte) {
	t.Helper()
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s: the destination prefix was overwritten: %q", what, got)
	}
	got = got[len(prefix):]
	if want == nil {
		if err == nil || len(got) != 0 {
			t.Fatalf("%s: encoding/json refuses the value, the encoder wrote %q (err %v)", what, got, err)
		}
		return
	}
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %q (err %v)\nwant %q", what, got, err, want)
	}
}

// FuzzAppendEvalResult is a differential test of the result-line encoder
// against encoding/json: for an EvalResult, for the same result as a stream
// line (a StreamResult without an error), and with a Summary standing in
// for the support fields, the encoder must write exactly json.Encoder's
// bytes, or fail and append nothing where encoding/json refuses the value.
// The seed corpus covers -0, 1e-7, 1e21, 5e-324, ±MaxFloat64, NaN, +Inf,
// escaped strings and every engine name.
func FuzzAppendEvalResult(f *testing.F) {
	f.Add(int64(3), "GP", false, false, 0.1, 0.07, 0.02, 0.05, 1.5, -2.25, uint8(2), "p50", "0123456789abcdef",
		uint64(0xfeedface), 1784, 0, 0, 31)
	f.Fuzz(func(t *testing.T, seq int64, engine string, met, filtered bool,
		eps, bound, boundGP, boundMC, mean, q float64, quantMode uint8, key, hash string, digest uint64,
		samples, udfCalls, pointsAdded, localPoints int) {
		r := EvalResult{
			Seq: seq, Engine: engine, Eps: eps, Bound: bound, BoundGP: boundGP, BoundMC: boundMC,
			MetBudget: met, Mean: mean, SupportHash: hash, Samples: samples, UDFCalls: udfCalls,
			PointsAdded: pointsAdded, LocalPoints: localPoints, Filtered: filtered,
		}
		switch quantMode % 4 {
		case 1:
			r.Quantiles = map[string]float64{}
		case 2:
			r.Quantiles = map[string]float64{"p05": q, "p25": mean, "p50": eps, "p75": -q, "p95": bound}
		case 3:
			r.Quantiles = map[string]float64{key: q, "p50": mean, key + "\x00": boundGP}
		}
		prefix := []byte("prefix\n")

		got, err := AppendEvalResult(append([]byte(nil), prefix...), &r, nil)
		checkLine(t, "EvalResult", prefix, got, err, jsonLine(t, &r))
		checkLine(t, "StreamResult", prefix, got, err, jsonLine(t, &StreamResult{EvalResult: r}))

		s := Summary{Mean: mean, Quantiles: [len(QuantileLevels)]float64{q, eps, bound, boundGP, boundMC}, Hash: digest}
		full := r
		full.Mean = s.Mean
		full.Quantiles = make(map[string]float64, len(QuantileKeys))
		for i, k := range QuantileKeys {
			full.Quantiles[k] = s.Quantiles[i]
		}
		full.SupportHash = fmt.Sprintf("%016x", s.Hash)
		got, err = AppendEvalResult(append([]byte(nil), prefix...), &r, &s)
		checkLine(t, "EvalResult with a Summary", prefix, got, err, jsonLine(t, &full))
	})
}
