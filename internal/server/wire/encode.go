package wire

import (
	"errors"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// QuantileLevels are the output quantiles every result reports, under the
// EvalResult.Quantiles keys QuantileKeys. The keys are in sorted order, the
// order encoding/json writes a map's keys in.
var (
	QuantileLevels = [...]float64{0.05, 0.25, 0.50, 0.75, 0.95}
	QuantileKeys   = [len(QuantileLevels)]string{"p05", "p25", "p50", "p75", "p95"}
)

// Summary is the part of a result computed from its output distribution, in
// a form that can be filled and encoded without allocating: the mean, the
// quantiles at QuantileLevels and the FNV-64a support digest that
// EvalResult.SupportHash spells as 16 hex digits.
type Summary struct {
	Mean      float64
	Quantiles [len(QuantileLevels)]float64
	Hash      uint64
}

// AppendEvalResult appends the JSON line of r: exactly the bytes
// json.NewEncoder(w).Encode(r) writes, trailing newline included, which are
// also a stream's result line (a StreamResult without an error). A non-nil
// s stands in for r's Mean, Quantiles and SupportHash, so a server can write
// a line straight from an evaluator's scratch. A non-finite float, which
// encoding/json refuses, is an error, and then dst comes back unchanged.
// Error lines are left to encoding/json.
func AppendEvalResult(dst []byte, r *EvalResult, s *Summary) ([]byte, error) {
	if !finiteResult(r, s) {
		return dst, errNonFinite
	}
	b := append(dst, `{"seq":`...)
	b = strconv.AppendInt(b, r.Seq, 10)
	b = append(b, `,"engine":`...)
	b = appendString(b, r.Engine)
	b = append(b, `,"eps":`...)
	b = appendFloat(b, r.Eps)
	b = append(b, `,"bound":`...)
	b = appendFloat(b, r.Bound)
	b = append(b, `,"bound_gp":`...)
	b = appendFloat(b, r.BoundGP)
	b = append(b, `,"bound_mc":`...)
	b = appendFloat(b, r.BoundMC)
	b = append(b, `,"met_budget":`...)
	b = strconv.AppendBool(b, r.MetBudget)
	b = append(b, `,"mean":`...)
	if s != nil {
		b = appendFloat(b, s.Mean)
		b = append(b, `,"quantiles":{`...)
		for i, k := range QuantileKeys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = appendFloat(b, s.Quantiles[i])
		}
		b = append(b, `},"support_hash":"`...)
		b = appendHex16(b, s.Hash)
		b = append(b, '"')
	} else {
		b = appendFloat(b, r.Mean)
		b = append(b, `,"quantiles":`...)
		b = appendQuantiles(b, r.Quantiles)
		b = append(b, `,"support_hash":`...)
		b = appendString(b, r.SupportHash)
	}
	b = append(b, `,"samples":`...)
	b = strconv.AppendInt(b, int64(r.Samples), 10)
	b = append(b, `,"udf_calls":`...)
	b = strconv.AppendInt(b, int64(r.UDFCalls), 10)
	b = append(b, `,"points_added":`...)
	b = strconv.AppendInt(b, int64(r.PointsAdded), 10)
	b = append(b, `,"local_points":`...)
	b = strconv.AppendInt(b, int64(r.LocalPoints), 10)
	if r.Filtered {
		b = append(b, `,"filtered":true`...)
	}
	return append(b, '}', '\n'), nil
}

var errNonFinite = errors.New("wire: result holds a non-finite float, which JSON cannot encode")

// finiteResult reports whether every float the line would carry is finite.
func finiteResult(r *EvalResult, s *Summary) bool {
	ok := finite(r.Eps) && finite(r.Bound) && finite(r.BoundGP) && finite(r.BoundMC)
	if s != nil {
		ok = ok && finite(s.Mean)
		for _, q := range s.Quantiles {
			ok = ok && finite(q)
		}
		return ok
	}
	ok = ok && finite(r.Mean)
	for _, q := range r.Quantiles {
		ok = ok && finite(q)
	}
	return ok
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendQuantiles writes a quantile map as encoding/json does: null when
// nil, otherwise the entries in sorted key order.
func appendQuantiles(b []byte, q map[string]float64) []byte {
	if q == nil {
		return append(b, "null"...)
	}
	var stack [len(QuantileKeys)]string
	keys := stack[:0]
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		b = appendFloat(b, q[k])
	}
	return append(b, '}')
}

// appendFloat formats a finite float as encoding/json does: the shortest
// round-trip digits, in e-notation below 1e-6 and from 1e21 in magnitude,
// with a one-digit negative exponent unpadded ("1e-7", not "1e-07").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendHex16 writes h as 16 zero-padded lower-case hex digits.
func appendHex16(b []byte, h uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[h>>uint(shift)&0xf])
	}
	return b
}

// appendString writes s as a JSON string the way json.Encoder does with its
// default HTML escaping: <, > and & as \u00XX, control bytes escaped,
// invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
