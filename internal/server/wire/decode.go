package wire

// This file decodes the two per-tuple request shapes — the stream line
// {"input":[DistSpec…]} and the eval body {"input":…,"seed":…,"learn":…} —
// into a caller's reused value without allocating. It is a fast path in
// front of encoding/json, not a second parser: it accepts only documents on
// which it is certain to produce exactly encoding/json's value, and reports
// false on anything else, so the caller decodes that document with
// encoding/json, which stays the one source of errors. It reports false on
//
//   - a key that is not an exact lowercase field name (case variants,
//     escapes and unknown fields);
//   - a duplicate key;
//   - null, an empty input array, or a value of the wrong kind;
//   - a string holding a backslash;
//   - a number outside the JSON grammar, or one strconv refuses;
//   - a mixture (weights, components) or an unknown "type";
//   - any byte after the document that is not JSON whitespace.
//
// Floats go through strconv.ParseFloat, as in encoding/json, so the bits
// agree.

import (
	"strconv"
	"unsafe"
)

// DecodeStreamLine decodes a stream line into sl, reusing sl.Input's
// storage. It reports false when the line needs encoding/json; sl.Input is
// then empty over zeroed storage, the state encoding/json must decode into.
func DecodeStreamLine(line []byte, sl *StreamLine) bool {
	resetInput(&sl.Input)
	if decodeStreamLine(line, sl) {
		return true
	}
	resetInput(&sl.Input)
	return false
}

// DecodeEvalRequest decodes an eval body into req, reusing req.Input's
// storage. A decoded learn flag points at shared storage that must not be
// written through. It reports false when the body needs encoding/json; req
// is then zero apart from empty, zeroed Input storage.
func DecodeEvalRequest(body []byte, req *EvalRequest) bool {
	resetEval(req)
	if decodeEvalRequest(body, req) {
		return true
	}
	resetEval(req)
	return false
}

// learnFlags is the storage a decoded learn flag points at: false, true.
var learnFlags = [2]bool{false, true}

func resetInput(in *InputSpec) {
	clear((*in)[:cap(*in)])
	*in = (*in)[:0]
}

func resetEval(req *EvalRequest) {
	resetInput(&req.Input)
	req.Seed, req.Learn = 0, nil
}

func decodeStreamLine(line []byte, sl *StreamLine) bool {
	s := scanner{b: line}
	if !s.next('{') {
		return false
	}
	if !s.next('}') {
		// One key only: a second would be a duplicate or an unknown one.
		key, ok := s.str()
		if !ok || string(key) != "input" || !s.next(':') || !s.input(&sl.Input) || !s.next('}') {
			return false
		}
	}
	return s.end()
}

func decodeEvalRequest(body []byte, req *EvalRequest) bool {
	s := scanner{b: body}
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return s.end()
	}
	var seen [3]bool // input, seed, learn
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		switch string(key) {
		case "input":
			if seen[0] || !s.input(&req.Input) {
				return false
			}
			seen[0] = true
		case "seed":
			n, ok := s.number()
			if !ok || seen[1] {
				return false
			}
			v, err := strconv.ParseInt(unsafeString(n), 10, 64)
			if err != nil {
				return false
			}
			req.Seed, seen[1] = v, true
		case "learn":
			v, ok := s.boolean()
			if !ok || seen[2] {
				return false
			}
			req.Learn, seen[2] = &learnFlags[v], true
		default:
			return false
		}
		if !s.next(',') {
			return s.next('}') && s.end()
		}
	}
}

// distKeys are the DistSpec keys the fast path decodes; bit i of a spec's
// seen-set marks distKeys[i].
var distKeys = [...]string{"type", "mu", "sigma", "lo", "hi", "shape", "scale", "loc", "rate", "value"}

// floatField returns the field of distKeys[i], i ≥ 1.
func (d *DistSpec) floatField(i int) *float64 {
	return [...]*float64{&d.Mu, &d.Sigma, &d.Lo, &d.Hi, &d.Shape, &d.Scale, &d.Loc, &d.Rate, &d.Value}[i-1]
}

// scalarTypes are the family names the fast path decodes; mixture and
// unknown names fall back. A decoded type is one of these literals, so it
// never allocates.
var scalarTypes = [...]string{"normal", "uniform", "gamma", "exponential", "constant"}

// index returns the position of v in keys, or -1.
func index(keys []string, v []byte) int {
	for i, k := range keys {
		if string(v) == k {
			return i
		}
	}
	return -1
}

// scanner walks a document; every method skips leading whitespace.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next token.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// str returns the bytes of a string holding no backslash. Control bytes
// and invalid UTF-8 are returned as they stand: no key or type literal
// contains them, so such a string never matches and the document falls
// back.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch s.b[j] {
		case '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case '\\':
			return nil, false
		}
	}
	return nil, false
}

// number returns the bytes of a number in the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. What follows it is the
// caller's to check: "01" scans as 0 followed by a byte no caller accepts.
func (s *scanner) number() ([]byte, bool) {
	s.ws()
	b, j := s.b, s.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = digits(b, j)
	default:
		return nil, false
	}
	if j < len(b) && b[j] == '.' {
		k := digits(b, j+1)
		if k == j+1 {
			return nil, false
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			return nil, false
		}
		j = k
	}
	v := b[s.i:j]
	s.i = j
	return v, true
}

func digits(b []byte, j int) int {
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j
}

func (s *scanner) float() (float64, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(unsafeString(n), 64)
	return v, err == nil
}

// boolean returns 1 for true and 0 for false.
func (s *scanner) boolean() (int, bool) {
	s.ws()
	rest := s.b[s.i:]
	for v, lit := range [2]string{"false", "true"} {
		if len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
			s.i += len(lit)
			return v, true
		}
	}
	return 0, false
}

// input decodes a non-empty array of scalar specs, appending to in.
func (s *scanner) input(in *InputSpec) bool {
	if !s.next('[') || s.next(']') {
		return false
	}
	for {
		*in = append(*in, DistSpec{})
		if !s.dist(&(*in)[len(*in)-1]) {
			return false
		}
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// dist decodes one scalar spec into the zeroed d.
func (s *scanner) dist(d *DistSpec) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen uint16
	for {
		key, ok := s.str()
		i := index(distKeys[:], key)
		if !ok || i < 0 || seen&(1<<i) != 0 || !s.next(':') {
			return false
		}
		seen |= 1 << i
		if i == 0 {
			v, ok := s.str()
			t := index(scalarTypes[:], v)
			if !ok || t < 0 {
				return false
			}
			d.Type = scalarTypes[t]
		} else if *d.floatField(i), ok = s.float(); !ok {
			return false
		}
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// unsafeString views b as a string for a strconv parse: strconv copies any
// string it keeps in an error, and b is not written while the view lives.
func unsafeString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
