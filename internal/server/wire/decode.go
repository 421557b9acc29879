package wire

// This file decodes the per-tuple request shapes — the stream line
// {"input":[DistSpec…]} and the eval body {"input":…,"seed":…,"learn":…} —
// and the two bounded-query bodies, POST /v1/query and
// POST /v1/query/partials, into a caller's reused value without allocating
// per tuple or per row. It is a fast path in front of encoding/json, not a
// second parser: it accepts only documents on which it is certain to
// produce exactly encoding/json's value, and reports false on anything
// else, so the caller decodes that document with encoding/json, which
// stays the one source of errors. It reports false on
//
//   - a key that is not an exact lowercase field name (case variants,
//     escapes and unknown fields);
//   - a duplicate key;
//   - null, an empty input or rows array, a row without input, or a value
//     of the wrong kind;
//   - a string holding a backslash, and a udf or group string holding a
//     control byte or invalid UTF-8;
//   - a number outside the JSON grammar, or one strconv refuses;
//   - a mixture (weights, components) or an unknown "type";
//   - a stage spec (predicate, window, group_by, topk, require_seq) that
//     encoding/json, run strictly on the spec's own bytes, refuses;
//   - any byte after the document that is not JSON whitespace.
//
// Floats go through strconv.ParseFloat, as in encoding/json, so the bits
// agree. A stage spec is decoded by encoding/json on its own bytes, once
// per request, which decodes it exactly as it would inside the document.

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// DecodeStreamLine decodes a stream line into sl, reusing sl.Input's
// storage. It reports false when the line needs encoding/json; sl.Input is
// then empty over zeroed storage, the state encoding/json must decode into.
func DecodeStreamLine(line []byte, sl *StreamLine) bool {
	resetRows(&sl.Input)
	if decodeStreamLine(line, sl) {
		return true
	}
	resetRows(&sl.Input)
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

// QueryScratch is the storage DecodeQueryRequest and
// DecodeQueryPartialsRequest reuse from one body to the next: the one
// array every row's input specs are cut from, and the body's table of udf
// and group strings, each of which is allocated once per body and never
// points into it.
type QueryScratch struct {
	specs InputSpec
	ends  []int // ends[i] is the end of row i's specs
	strs  map[string]string
}

// DecodeQueryRequest decodes a POST /v1/query body into req, reusing
// req.Rows's storage and sc's. Every row's Input is cut from sc's one spec
// array, so the rows are valid until sc decodes the next body. It reports
// false when the body needs encoding/json; req is then zero apart from
// empty, zeroed Rows storage.
func DecodeQueryRequest(body []byte, req *QueryRequest, sc *QueryScratch) bool {
	resetRows(&req.Rows)
	*req = QueryRequest{Rows: req.Rows}
	if decodeQueryRequest(body, req, sc) {
		return true
	}
	resetRows(&req.Rows)
	*req = QueryRequest{Rows: req.Rows}
	return false
}

// DecodeQueryPartialsRequest is DecodeQueryRequest for a
// POST /v1/query/partials body.
func DecodeQueryPartialsRequest(body []byte, req *QueryPartialsRequest, sc *QueryScratch) bool {
	resetRows(&req.Rows)
	*req = QueryPartialsRequest{Rows: req.Rows}
	if decodeQueryPartialsRequest(body, req, sc) {
		return true
	}
	resetRows(&req.Rows)
	*req = QueryPartialsRequest{Rows: req.Rows}
	return false
}

// learnFlags is the storage a decoded learn flag points at: false, true.
var learnFlags = [2]bool{false, true}

// resetRows empties rows over zeroed storage: encoding/json decodes an
// array element into the slice's old element without zeroing it first.
func resetRows[S ~[]E, E any](rows *S) {
	clear((*rows)[:cap(*rows)])
	*rows = (*rows)[:0]
}

func resetEval(req *EvalRequest) {
	resetRows(&req.Input)
	req.Seed, req.Learn = 0, nil
}

// The objects' keys: a key's index names its field in the decoders'
// switches, and bit i of an object's seen-set marks key i.
var (
	streamKeys   = [...]string{"input"}
	evalKeys     = [...]string{"input", "seed", "learn"}
	queryKeys    = [...]string{"udf", "rows", "seed", "predicate", "window", "group_by", "topk", "require_seq"}
	partialsKeys = [...]string{"udf", "rows", "seed", "predicate", "window", "group_by", "topk", "min_seq"}
	// A query row has input, group and udf; a partials row input, group
	// and ord.
	rowKeys  = [...]string{"input", "group", "udf", "ord"}
	distKeys = [...]string{"type", "mu", "sigma", "lo", "hi", "shape", "scale", "loc", "rate", "value"}
)

func decodeStreamLine(line []byte, sl *StreamLine) bool {
	s := scanner{b: line}
	return s.fields(streamKeys[:], func(int) bool { return s.input(&sl.Input) }) && s.end()
}

func decodeEvalRequest(body []byte, req *EvalRequest) bool {
	s := scanner{b: body}
	return s.fields(evalKeys[:], func(i int) bool {
		switch i {
		case 0:
			return s.input(&req.Input)
		case 1:
			return s.int64(&req.Seed)
		}
		v, ok := s.boolean()
		req.Learn = &learnFlags[v]
		return ok
	}) && s.end()
}

func decodeQueryRequest(body []byte, req *QueryRequest, sc *QueryScratch) bool {
	sc.reset()
	s := scanner{b: body}
	return s.fields(queryKeys[:], func(i int) bool {
		switch i {
		case 0:
			return s.text(sc, &req.UDF)
		case 1:
			ok := s.array(func() bool {
				req.Rows = append(req.Rows, QueryRow{})
				row := &req.Rows[len(req.Rows)-1]
				return s.row(sc, &row.Group, &row.UDF, nil)
			})
			for i := range req.Rows {
				req.Rows[i].Input = sc.cut(i)
			}
			return ok
		case 2:
			return s.int64(&req.Seed)
		case 7:
			return s.object(&req.RequireSeq)
		}
		return s.stage(i, &req.Predicate, &req.Window, &req.GroupBy, &req.TopK)
	}) && s.end()
}

func decodeQueryPartialsRequest(body []byte, req *QueryPartialsRequest, sc *QueryScratch) bool {
	sc.reset()
	s := scanner{b: body}
	return s.fields(partialsKeys[:], func(i int) bool {
		switch i {
		case 0:
			return s.text(sc, &req.UDF)
		case 1:
			ok := s.array(func() bool {
				req.Rows = append(req.Rows, PartialRowSpec{})
				row := &req.Rows[len(req.Rows)-1]
				return s.row(sc, &row.Group, nil, &row.Ord)
			})
			for i := range req.Rows {
				req.Rows[i].Input = sc.cut(i)
			}
			return ok
		case 2:
			return s.int64(&req.Seed)
		case 7:
			return s.int64(&req.MinSeq)
		}
		return s.stage(i, &req.Predicate, &req.Window, &req.GroupBy, &req.TopK)
	}) && s.end()
}

func (sc *QueryScratch) reset() {
	sc.specs, sc.ends = sc.specs[:0], sc.ends[:0]
	clear(sc.strs)
}

// cut returns row i's input specs, capped so that appending to them cannot
// reach the next row's.
func (sc *QueryScratch) cut(i int) InputSpec {
	start := 0
	if i > 0 {
		start = sc.ends[i-1]
	}
	end := sc.ends[i]
	return sc.specs[start:end:end]
}

// intern returns b as a string, allocating once per distinct value.
func (sc *QueryScratch) intern(b []byte) string {
	if v, ok := sc.strs[string(b)]; ok {
		return v
	}
	if sc.strs == nil {
		sc.strs = make(map[string]string)
	}
	v := string(b)
	sc.strs[v] = v
	return v
}

// row decodes one relation row, appending its input specs to sc.specs and
// their end to sc.ends. A nil udf or ord means the row has no such key.
func (s *scanner) row(sc *QueryScratch, group, udf *string, ord *int64) bool {
	hasInput := false
	ok := s.fields(rowKeys[:], func(i int) bool {
		switch i {
		case 0:
			hasInput = true
			return s.input(&sc.specs)
		case 1:
			return s.text(sc, group)
		case 2:
			return udf != nil && s.text(sc, udf)
		}
		return ord != nil && s.int64(ord)
	})
	sc.ends = append(sc.ends, len(sc.specs))
	return ok && hasInput
}

// stage decodes the value of stage key i (3 predicate, 4 window,
// 5 group_by, 6 topk) into its field.
func (s *scanner) stage(i int, p **PredicateSpec, w **WindowSpec, g **GroupBySpec, k **TopKSpec) bool {
	switch i {
	case 3:
		return s.object(p)
	case 4:
		return s.object(w)
	case 5:
		return s.object(g)
	}
	return s.object(k)
}

// fields decodes an object whose keys are all in keys, each at most once,
// calling field with a key's index when the scanner is at its value.
func (s *scanner) fields(keys []string, field func(int) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen uint16
	for {
		key, ok := s.str()
		i := index(keys, key)
		if !ok || i < 0 || seen&(1<<i) != 0 || !s.next(':') || !field(i) {
			return false
		}
		seen |= 1 << i
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// array decodes a non-empty array, calling elem when the scanner is at
// each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.next('[') || s.next(']') {
		return false
	}
	for {
		if !elem() {
			return false
		}
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// text decodes a string value into *dst, interned in sc: one that
// encoding/json copies verbatim, holding no backslash, control byte or
// invalid UTF-8.
func (s *scanner) text(sc *QueryScratch, dst *string) bool {
	v, ok := s.str()
	if !ok {
		return false
	}
	ascii := true
	for _, c := range v {
		if c < 0x20 {
			return false
		}
		ascii = ascii && c < utf8.RuneSelf
	}
	if !ascii && !utf8.Valid(v) {
		return false
	}
	*dst = sc.intern(v)
	return true
}

// int64 decodes an integer value as encoding/json does, by
// strconv.ParseInt.
func (s *scanner) int64(dst *int64) bool {
	n, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(unsafeString(n), 10, 64)
	*dst = v
	return err == nil
}

// object decodes an object value into v by encoding/json, strictly, on
// the object's own bytes.
func (s *scanner) object(v any) bool {
	s.ws()
	start := s.i
	if !s.skipObject() {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(s.b[start:s.i]))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil && dec.InputOffset() == int64(s.i-start)
}

// skipObject consumes an object by bracket depth, skipping strings and
// their escapes. It only finds the object's end: whether the bytes are
// JSON is encoding/json's to decide.
func (s *scanner) skipObject() bool {
	if s.i == len(s.b) || s.b[s.i] != '{' {
		return false
	}
	depth := 0
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				s.i++
				return true
			}
		case '"':
			for s.i++; s.i < len(s.b) && s.b[s.i] != '"'; s.i++ {
				if s.b[s.i] == '\\' {
					s.i++
				}
			}
		}
	}
	return false
}

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
	return s.array(func() bool {
		*in = append(*in, DistSpec{})
		return s.dist(&(*in)[len(*in)-1])
	})
}

// dist decodes one scalar spec into the zeroed d.
func (s *scanner) dist(d *DistSpec) bool {
	return s.fields(distKeys[:], func(i int) bool {
		if i > 0 {
			var ok bool
			*d.floatField(i), ok = s.float()
			return ok
		}
		v, ok := s.str()
		t := index(scalarTypes[:], v)
		if ok && t >= 0 {
			d.Type = scalarTypes[t]
		}
		return ok && t >= 0
	})
}

// unsafeString views b as a string for a strconv parse: strconv copies any
// string it keeps in an error, and b is not written while the view lives.
func unsafeString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
