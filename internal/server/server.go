package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/exec"
	"olgapro/internal/query"
	"olgapro/internal/server/wire"
)

// Config parameterizes a Server. The zero value is usable.
type Config struct {
	// SnapshotDir is where POST /v1/snapshot persists trained GP state and
	// where boot-time restore looks. Empty disables persistence.
	SnapshotDir string
	// SnapshotKeep is how many sequence-stamped snapshot files to retain per
	// UDF; older ones are deleted after each successful snapshot. Default 3.
	SnapshotKeep int
	// MaxInFlight bounds the number of tuples being evaluated or queued
	// across all requests; admission beyond it is refused with 429 and a
	// Retry-After. Default 256.
	MaxInFlight int
	// RequestTimeout is the per-request context deadline; a request may
	// lower (never raise) it with ?timeout_ms=N. Default 30s.
	RequestTimeout time.Duration
	// Workers is the number of frozen-clone slots per UDF — the read path's
	// maximum concurrency and a stream's maximum fan-out. Default
	// GOMAXPROCS.
	Workers int
	// AuthToken, when non-empty, requires "Authorization: Bearer <token>" on
	// every request except health checks.
	AuthToken string
	// Logf, when non-nil, receives one line per notable server event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.SnapshotKeep <= 0 {
		c.SnapshotKeep = 3
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the olgaprod HTTP service: an evaluator registry behind the /v1
// JSON API with admission control and snapshot persistence. Build one with
// New, mount Handler on an http.Server, and Close it after draining.
type Server struct {
	cfg      Config
	reg      *Registry
	mux      *http.ServeMux
	inflight chan struct{}
	start    time.Time
	draining atomic.Bool

	// fleet holds the hooks installed by SetFleetHooks when this process
	// runs as a fleet shard; nil outside fleet mode.
	fleet atomic.Pointer[FleetHooks]
}

// FleetHooks connects the server's replication surface to the fleet
// replicator running in the same process: the replication list carries the
// shard's membership epoch, and POST /v1/replication/members feeds adopted
// epochs in. Both are optional — a nil hook disables the corresponding
// behavior.
type FleetHooks struct {
	// Membership returns the shard's current membership view.
	Membership func() wire.Membership
	// AdoptMembership offers a (possibly newer) membership; reports whether
	// the shard's view changed.
	AdoptMembership func(wire.Membership) (bool, error)
}

// SetFleetHooks installs (or, with nil, removes) the fleet hooks.
func (s *Server) SetFleetHooks(h *FleetHooks) { s.fleet.Store(h) }

// New builds a server and, when cfg.SnapshotDir holds snapshot metadata
// from a previous run, restores every persisted UDF so the new process
// skips re-learning.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      NewRegistry(cfg.Workers),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		start:    time.Now(),
	}
	s.routes()
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: snapshot dir: %w", err)
		}
		if err := s.restoreAll(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Registry exposes the server's registry for in-process composition (the
// replication puller installs fetched snapshots through it).
func (s *Server) Registry() *Registry { return s.reg }

// Close drains the registry: every UDF's learner finishes its tuple and
// subsequent requests fail with 503.
func (s *Server) Close() {
	s.draining.Store(true)
	s.reg.Close()
}

// Handler returns the service's HTTP handler: each request is routed once,
// to a /v1 handler behind the request guard or to the not_found catch-all.
func (s *Server) Handler() http.Handler { return s.mux }

// healthPath is exempt from auth: load balancers and fleet health checkers
// must be able to probe without credentials.
const healthPath = "/v1/healthz"

// CheckBearer reports whether r carries "Authorization: Bearer <token>",
// compared in constant time. The shard and the fleet router both gate
// their /v1 routes on it.
func CheckBearer(r *http.Request, token string) bool {
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	return len(h) > len(prefix) && h[:len(prefix)] == prefix &&
		subtle.ConstantTimeCompare([]byte(h[len(prefix):]), []byte(token)) == 1
}

// NotFound is the catch-all handler of the shard's and the router's muxes:
// an unknown path, or a known path under another method, answers the
// not_found envelope — before auth, so probing needs no credentials.
func NotFound(w http.ResponseWriter, r *http.Request) {
	WriteError(w, Errorf(http.StatusNotFound, wire.CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
}

// handle registers h for pattern behind the cross-cutting policies of
// handleParams.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.handleParams(pattern, func(w http.ResponseWriter, r *http.Request, _ url.Values) { h(w, r) })
}

// handleParams registers h for pattern behind the cross-cutting policies,
// in order: bearer auth (every route but health checks), drain refusal,
// and the per-request deadline. The query string is parsed once, for the
// deadline, and handed to h.
func (s *Server) handleParams(pattern string, h func(http.ResponseWriter, *http.Request, url.Values)) {
	authed := pattern != "GET "+healthPath
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if tok := s.cfg.AuthToken; authed && tok != "" && !CheckBearer(r, tok) {
			s.fail(w, http.StatusUnauthorized, wire.CodeUnauthorized, "missing or invalid bearer token")
			return
		}
		if s.draining.Load() {
			s.fail(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
			return
		}
		timeout := s.cfg.RequestTimeout
		q := queryOf(r)
		if ms := q.Get("timeout_ms"); ms != "" {
			if v, err := strconv.Atoi(ms); err == nil && v > 0 && time.Duration(v)*time.Millisecond < timeout {
				timeout = time.Duration(v) * time.Millisecond
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		h(w, r.WithContext(ctx), q)
	})
}

// queryOf parses r's query string, or returns nil (whose Get answers "")
// when there is none: parsing allocates a map even for an empty string.
func queryOf(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	return r.URL.Query()
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/", NotFound)
	s.handle("GET "+healthPath, s.handleHealthz)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /v1/catalog", s.handleCatalog)
	s.handle("GET /v1/udfs", s.handleListUDFs)
	s.handle("POST /v1/udfs", s.handleRegister)
	s.handle("POST /v1/udfs/{name}/eval", s.handleEval)
	s.handleParams("POST /v1/udfs/{name}/stream", s.handleStream)
	s.handle("POST /v1/udfs/{name}/snapshot", s.handleSnapshotOne)
	s.handle("POST /v1/snapshot", s.handleSnapshotAll)
	s.handle("POST /v1/query", s.handleQuery)
	s.handle("POST /v1/query/partials", s.handleQueryPartials)
	s.handleParams("GET /v1/replication/udfs", s.handleReplicationList)
	s.handleParams("GET /v1/udfs/{name}/snapshot", s.handleSnapshotFetch)
	s.handle("GET /v1/replication/members", s.handleMembershipGet)
	s.handle("POST /v1/replication/members", s.handleMembershipPost)
}

// --- admission control ---

// tryAdmit takes one in-flight-tuple token without blocking; callers refuse
// the request with 429 when it fails.
func (s *Server) tryAdmit() bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

// admit blocks for a token under ctx — the backpressure used for the later
// tuples of an already-admitted stream.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.inflight <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.inflight }

// --- JSON plumbing ---

// WriteJSON writes v as a JSON response with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// ReadBody reads r's body into buf's storage, reading at most
// wire.MaxRequestBytes+1 bytes: a body over the cap is refused 413
// over_capacity, a failed read 400 bad_spec. Shard and router read every
// non-stream JSON body through it.
func ReadBody(r *http.Request, buf []byte) ([]byte, error) {
	body, over, err := ReadCapped(r.Body, r.ContentLength, buf, wire.MaxRequestBytes)
	switch {
	case over:
		return body, Errorf(http.StatusRequestEntityTooLarge, wire.CodeOverCapacity,
			"request body over %d bytes", wire.MaxRequestBytes)
	case err != nil:
		return body, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "read body: %v", err)
	}
	return body, nil
}

// ReadCapped reads rd to its end into buf's storage, reading at most
// limit+1 bytes, and reports whether it read past limit. A declared
// length n (−1 when unknown) sizes the buffer up to maxBodyPrealloc, so a
// claimed length alone cannot make it allocate more.
func ReadCapped(rd io.Reader, n int64, buf []byte, limit int) ([]byte, bool, error) {
	body := buf[:0]
	if n >= int64(cap(body)) {
		body = make([]byte, 0, min(n, maxBodyPrealloc)+1)
	} else if cap(body) == 0 {
		body = make([]byte, 0, 512)
	}
	for {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(cap(body), limit+1-len(body)))
		}
		k, err := rd.Read(body[len(body):min(cap(body), limit+1)])
		body = body[:len(body)+k]
		switch {
		case len(body) > limit:
			return body, true, nil
		case err == io.EOF:
			return body, false, nil
		case err != nil:
			return body, false, err
		}
	}
}

// maxBodyPrealloc bounds what ReadCapped allocates on a declared
// Content-Length before the bytes arrive.
const maxBodyPrealloc = 1 << 20

// DecodeBody reads r's body with ReadBody and decodes it strictly into v:
// unknown fields and trailing data are refused. A refusal is an *Error:
// ReadBody's, or 400 bad_spec "bad <what>: …".
func DecodeBody(r *http.Request, what string, v any) error {
	body, err := ReadBody(r, nil)
	if err != nil {
		return err
	}
	if err := decodeStrict(bytes.NewReader(body), v); err != nil {
		return Errorf(http.StatusBadRequest, wire.CodeBadSpec, "bad %s: %v", what, err)
	}
	return nil
}

// decodeStrict decodes one JSON document, rejecting unknown fields and
// trailing garbage — malformed requests fail loudly instead of silently
// dropping a mistyped parameter.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// --- results ---

// EvalResult is the wire form of one evaluated tuple (see wire.EvalResult).
// Floats are encoded by encoding/json's shortest-round-trip formatting, so
// equal bits produce equal text: two results are bit-identical iff their
// JSON lines are equal.
type EvalResult = wire.EvalResult

// Aliases binding the handler vocabulary to the shared wire surface.
type (
	udfInfo      = wire.UDFInfo
	streamLine   = wire.StreamLine
	streamResult = wire.StreamResult
	snapshotInfo = wire.SnapshotInfo
)

// supportSum digests the raw float64 bits of the output support: FNV-64a
// over each value's 8 little-endian bytes.
func supportSum(vals []float64) uint64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= bits & 0xff
			h *= fnvPrime64
			bits >>= 8
		}
	}
	return h
}

// hashHex spells a support digest as 16 zero-padded hex digits.
func hashHex(h uint64) string {
	var out [16]byte
	n := len(strconv.AppendUint(out[:0], h, 16))
	copy(out[16-n:], out[:n])
	for i := 0; i < 16-n; i++ {
		out[i] = '0'
	}
	return string(out[:])
}

// summaryOf computes the distribution fields every result reports.
func summaryOf(d *ecdf.ECDF) wire.Summary {
	s := wire.Summary{Mean: d.Mean(), Hash: supportSum(d.Values())}
	for i, p := range wire.QuantileLevels {
		s.Quantiles[i] = d.Quantile(p)
	}
	return s
}

// headerOf flattens a core.Output into the wire form, less the fields
// computed from its distribution (see summaryOf).
func headerOf(seq int64, out *core.Output, eps float64) EvalResult {
	return EvalResult{
		Seq:       seq,
		Engine:    out.Engine.String(),
		Eps:       eps,
		Bound:     out.Bound,
		BoundGP:   out.BoundGP,
		BoundMC:   out.BoundMC,
		MetBudget: out.MetBudget,
		Samples:   out.Samples,
		UDFCalls:  out.UDFCalls,

		PointsAdded: out.PointsAdded,
		LocalPoints: out.LocalPoints,
		Filtered:    out.Filtered,
	}
}

// resultOf flattens a core.Output into the wire form.
func resultOf(seq int64, out *core.Output, eps float64) EvalResult {
	r := headerOf(seq, out, eps)
	if out.Dist != nil {
		sum := summaryOf(out.Dist)
		r.Mean = sum.Mean
		r.Quantiles = make(map[string]float64, len(wire.QuantileKeys))
		for i, k := range wire.QuantileKeys {
			r.Quantiles[k] = sum.Quantiles[i]
		}
		r.SupportHash = hashHex(sum.Hash)
	}
	return r
}

// appendResult appends the JSON line of one evaluated tuple, encoded
// straight from the output's support, so a borrowed output can be encoded
// before its evaluator's scratch is reused. The bytes are encoding/json's
// for resultOf's value; like json.Encoder, a line holding a non-finite
// float is not written at all.
func appendResult(dst []byte, seq int64, out *core.Output, eps float64) []byte {
	r := headerOf(seq, out, eps)
	var sum *wire.Summary
	if out.Dist != nil {
		s := summaryOf(out.Dist)
		sum = &s
	}
	dst, _ = wire.AppendEvalResult(dst, &r, sum)
	return dst
}

// writeResult answers a single eval with its result line.
func writeResult(w http.ResponseWriter, line []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(line)
}

// --- basic endpoints ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, wire.HealthResponse{
		Status:    "ok",
		UptimeSec: time.Since(s.start).Seconds(),
		UDFs:      len(s.reg.List()),
		InFlight:  len(s.inflight),
		Capacity:  cap(s.inflight),
	})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	entries := Catalog()
	resp := wire.CatalogResponse{UDFs: make([]wire.CatalogUDF, len(entries))}
	for i, c := range entries {
		resp.UDFs[i] = wire.CatalogUDF{Name: c.Name, Dim: c.Dim, Description: c.Description}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.List()
	resp := wire.StatsResponse{UDFs: make([]UDFStats, 0, len(entries))}
	var totalMC int64
	for _, e := range entries {
		st, err := e.stats(r.Context())
		if err != nil {
			s.failErr(w, err, "stats for %q: %v", e.Spec().Name, err)
			return
		}
		resp.TotalSavedCalls += st.SavedCalls
		totalMC += st.MCEquivalentCalls
		resp.UDFs = append(resp.UDFs, st)
	}
	if totalMC > 0 {
		resp.TotalSavingsRatio = float64(resp.TotalSavedCalls) / float64(totalMC)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// --- registration ---

func infoOf(e *udfEntry) udfInfo {
	return udfInfo{
		Name:           e.spec.Name,
		UDF:            e.spec.UDF,
		Dim:            e.def.entry.Dim,
		Eps:            e.cfg.Eps,
		Delta:          e.cfg.Delta,
		TrainingPoints: int64(e.Points()),
		MCSamples:      e.mcSamples,
		SparseBudget:   e.cfg.SparseBudget,
		ModelSeq:       e.Seq(),
		Replica:        e.Replica(),
	}
}

func (s *Server) handleListUDFs(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.List()
	resp := wire.UDFList{UDFs: make([]udfInfo, len(entries))}
	for i, e := range entries {
		resp.UDFs[i] = infoOf(e)
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if err := DecodeBody(r, "register request", &req); err != nil {
		WriteError(w, err)
		return
	}
	e, err := s.reg.Register(req.Spec(), nil)
	if err != nil {
		if errors.Is(err, errAlreadyRegistered) || errors.Is(err, errDraining) {
			s.failErr(w, err, "%v", err)
		} else {
			s.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "%v", err)
		}
		return
	}
	var in inputVec
	for i, spec := range req.Warmup {
		vec, verr := in.set(spec)
		if verr == nil && vec.Dim() != e.def.entry.Dim {
			verr = fmt.Errorf("dim %d ≠ UDF dim %d", vec.Dim(), e.def.entry.Dim)
		}
		if verr != nil {
			// Roll the registration back: a half-warmed instance the client
			// thinks failed must not squat on the name.
			s.reg.remove(e.spec.Name)
			s.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "warmup[%d]: %v", i, verr)
			return
		}
		// Warm-up tuples are in-flight tuples like any other: they take an
		// admission token each, so concurrent registrations cannot run
		// unbounded learning work past MaxInFlight.
		if err := s.admit(r.Context()); err != nil {
			s.reg.remove(e.spec.Name)
			s.failErr(w, err, "warmup[%d]: %v", i, err)
			return
		}
		err := e.learnEval(r.Context(), vec, query.TupleSeed(req.WarmupSeed, int64(i)), nil)
		s.release()
		if err != nil {
			s.reg.remove(e.spec.Name)
			s.failErr(w, err, "warmup[%d]: %v", i, err)
			return
		}
	}
	s.cfg.Logf("registered UDF %q (catalog %s, ε=%g δ=%g, %d warm-up tuples)",
		e.spec.Name, e.spec.UDF, e.cfg.Eps, e.cfg.Delta, len(req.Warmup))
	WriteJSON(w, http.StatusCreated, infoOf(e))
}

// --- evaluation ---

func (s *Server) entryFor(w http.ResponseWriter, r *http.Request) (*udfEntry, bool) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		s.fail(w, http.StatusNotFound, wire.CodeNotFound, "no UDF %q registered", name)
		return nil, false
	}
	return e, true
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	body := evalBodies.Get().(*evalBody)
	defer body.release()
	if err := body.decode(r); err != nil {
		WriteError(w, err)
		return
	}
	req := &body.req
	if len(req.Input) != e.def.entry.Dim {
		s.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "input has %d attributes, UDF %q wants %d",
			len(req.Input), e.spec.Name, e.def.entry.Dim)
		return
	}
	vec, err := body.in.set(req.Input)
	if err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "%v", err)
		return
	}
	if !s.tryAdmit() {
		s.fail(w, http.StatusTooManyRequests, wire.CodeOverCapacity,
			"at capacity (%d tuples in flight)", cap(s.inflight))
		return
	}
	defer s.release()
	seed := query.TupleSeed(req.Seed, 0)
	if req.Learn != nil && !*req.Learn {
		// The line is written while the clone slot is borrowed: it is
		// encoded from the clone's scratch into the slot's buffer.
		if err := e.frozenEval(r.Context(), vec, seed, func(line []byte) { writeResult(w, line) }); err != nil {
			s.failErr(w, err, "%v", err)
		}
		return
	}
	// A learned line is encoded under the learner token, from the learning
	// evaluator's scratch, and written once the token is given back.
	var line []byte
	if err := e.learnEval(r.Context(), vec, seed, func(out *core.Output) {
		line = appendResult(make([]byte, 0, resultLineCap), 0, out, e.cfg.Eps)
	}); err != nil {
		s.failErr(w, err, "%v", err)
		return
	}
	writeResult(w, line)
}

// evalBody is one eval request's body, decode target and input vector. It
// is pooled, so an eval in the steady state reads and decodes its body
// without allocating, and builds its input allocating only for the
// distributions.
type evalBody struct {
	buf []byte
	rd  bytes.Reader
	req wire.EvalRequest
	in  inputVec
}

var evalBodies = sync.Pool{New: func() any { return new(evalBody) }}

// An evalBody goes back to the pool only while its storage is within
// these bounds, so one oversized request is not retained.
const (
	maxPooledBody  = 64 << 10
	maxPooledSpecs = 64
)

// decode reads an eval body and decodes it into b.req: by the fast path
// when it accepts the body, else by encoding/json, which refuses the body
// with its own error.
func (b *evalBody) decode(r *http.Request) error {
	var err error
	if b.buf, err = ReadBody(r, b.buf); err != nil {
		return err
	}
	if wire.DecodeEvalRequest(b.buf, &b.req) {
		return nil
	}
	b.rd.Reset(b.buf)
	if err := decodeStrict(&b.rd, &b.req); err != nil {
		return Errorf(http.StatusBadRequest, wire.CodeBadSpec, "bad eval request: %v", err)
	}
	return nil
}

func (b *evalBody) release() {
	if cap(b.buf) <= maxPooledBody && cap(b.req.Input) <= maxPooledSpecs {
		evalBodies.Put(b)
	}
}

// --- streaming ---

// handleStream evaluates an NDJSON stream of tuples. ?learn=false serves
// the whole stream from frozen clones fanned out over the exec executor —
// per-tuple seeding (query.TupleSeed over ?seed=S and the line number) makes
// the response bytes a deterministic function of the model state, so a
// snapshot-restored server replays a session bit-identically. The default
// learn mode evaluates every tuple on the learning evaluator, under its
// one-token lock, with the same per-line seed derivation.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, q url.Values) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	learn := q.Get("learn") != "false"
	var seed int64
	if sv := q.Get("seed"); sv != "" {
		v, err := strconv.ParseInt(sv, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "bad seed %q", sv)
			return
		}
		seed = v
	}
	// Admission probe: a stream is refused up front when the server is at
	// capacity, but the probe token is returned immediately — the stream's
	// real footprint is accounted per tuple (decode → emission) by both
	// modes below, so a stream never holds a standing token on top of its
	// tuples' tokens. (With a standing token, -max-inflight 1 would
	// deadlock every stream against its own first tuple.)
	if !s.tryAdmit() {
		s.fail(w, http.StatusTooManyRequests, wire.CodeOverCapacity,
			"at capacity (%d tuples in flight)", cap(s.inflight))
		return
	}
	s.release()

	// Results stream back while the request body is still being read, so
	// the connection must be full-duplex — without this, net/http may
	// discard the unread request body once the first response line is
	// written, truncating the stream mid-session.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		s.cfg.Logf("stream: full duplex unavailable: %v", err)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	fail := func(seq int64, err error) {
		_, code := errClass(err)
		enc.Encode(streamResult{EvalResult: EvalResult{Seq: seq}, Error: err.Error(), ErrorCode: code})
	}
	if learn {
		s.streamLearn(r.Context(), e, r.Body, seed, w, fail)
	} else {
		s.streamFrozen(r.Context(), e, r.Body, seed, w, fail)
	}
}

// streamLearn runs the stream sequentially on the learning evaluator,
// taking one in-flight token per tuple for the duration of its evaluation.
// Each result line is encoded under the learner token and written after it.
func (s *Server) streamLearn(ctx context.Context, e *udfEntry, body io.Reader,
	seed int64, w io.Writer, fail func(int64, error)) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var (
		seq  int64
		sl   streamLine
		rd   bytes.Reader
		in   inputVec
		line []byte
	)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if err := decodeStreamLine(&rd, &sl, raw, e.def.entry.Dim); err != nil {
			fail(seq, err)
			return
		}
		vec, err := in.set(sl.Input)
		if err != nil {
			fail(seq, badReqf("%v", err))
			return
		}
		if err := s.admit(ctx); err != nil {
			fail(seq, err)
			return
		}
		err = e.learnEval(ctx, vec, query.TupleSeed(seed, seq), func(out *core.Output) {
			line = appendResult(line[:0], seq, out, e.cfg.Eps)
		})
		s.release()
		if err != nil {
			fail(seq, err)
			return
		}
		w.Write(line)
		seq++
	}
	if err := sc.Err(); err != nil {
		fail(seq, err)
	}
}

// decodeStreamLine parses one request line into sl and validates its arity
// — the single definition of stream-line semantics, shared by the learn path
// and the frozen pipeline source so both reject malformed lines
// identically. The fast path decodes a line it accepts into sl's storage;
// any other line is decoded by encoding/json, reading through rd, into the
// emptied sl, so a reused line decodes exactly as a fresh one.
func decodeStreamLine(rd *bytes.Reader, sl *streamLine, line []byte, dim int) error {
	if !wire.DecodeStreamLine(line, sl) {
		rd.Reset(line)
		if err := decodeStrict(rd, sl); err != nil {
			return badReqf("bad stream line: %v", err)
		}
	}
	if len(sl.Input) != dim {
		return badReqf("input has %d attributes, UDF wants %d", len(sl.Input), dim)
	}
	return nil
}

// streamFrozen maps the stream's items over frozen clones with the exec
// executor. The NDJSON decode is itself the pipeline source: items are
// pulled lazily, each one holding an in-flight admission token from decode
// to emission, so a stream cannot queue unbounded work. Each worker encodes
// its item's result line from its clone's scratch, and the lines are
// written in stream order.
func (s *Server) streamFrozen(ctx context.Context, e *udfEntry, body io.Reader,
	seed int64, w io.Writer, fail func(int64, error)) {
	pool, release, err := e.frozenPool(ctx, s.cfg.Workers)
	if err != nil {
		fail(0, err)
		return
	}
	defer release()

	src := &lineIter{
		sc:  bufio.NewScanner(body),
		dim: e.def.entry.Dim,
		srv: s,
		ctx: ctx,
	}
	src.sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	eps := e.cfg.Eps
	pe := exec.Map(pool, src, "y", func(eng query.Engine, it *streamItem, rng *rand.Rand) (*streamItem, error) {
		out, err := query.Borrowed(eng, &it.in.vec, rng)
		if err != nil {
			return nil, err
		}
		it.result = appendResult(it.result[:0], it.seq, out, eps)
		return it, nil
	}, exec.Options{Ctx: ctx, Seed: seed})
	defer pe.Close()
	var emitted int64
	defer func() {
		// Release the admission tokens of tuples decoded but never emitted
		// (error/cancellation teardown).
		for n := src.decoded.Load() - emitted; n > 0; n-- {
			s.release()
		}
	}()
	for {
		it, err := pe.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			fail(emitted, err)
			return
		}
		w.Write(it.result)
		emitted++
		s.release()
		e.served.Add(1)
		src.items.put(it)
	}
}

// streamItem is one frozen-stream line on its way through the executor:
// its decoded input, the input vector built from it and its encoded result
// line. A stream recycles its items, so a line in the steady state
// allocates for its distributions and nothing else.
type streamItem struct {
	seq    int64
	rd     bytes.Reader
	line   streamLine
	in     inputVec
	result []byte
}

// inputVec is a reused input vector: the per-dimension distributions of
// one input spec, the typed storage they are built into, and the
// independent joint over them. Setting it boxes no distribution and, once
// its storage has grown to an input's size, allocates nothing; a vector
// handed to the evaluator is not kept past the evaluation, so the next
// input may reuse it.
type inputVec struct {
	comps []dist.Dist
	dists wire.Dists
	vec   dist.Independent
}

// set validates spec and makes v its joint input distribution; on an
// error the returned vector is not to be used.
func (v *inputVec) set(spec wire.InputSpec) (dist.Vector, error) {
	var err error
	v.dists.Reset()
	v.dists.Reserve(spec)
	v.comps, err = spec.AppendDists(v.comps[:0], &v.dists)
	v.vec.SetComponents(v.comps)
	return &v.vec, err
}

// resultLineCap is the initial capacity of a result line buffer: a line is
// about 350 bytes, so one allocation holds it.
const resultLineCap = 512

// itemPool is one stream's free list of items: the source takes from it
// and the handler returns to it.
type itemPool struct {
	mu   sync.Mutex
	free []*streamItem
}

// get returns a free item, or a new one when every item is in flight.
func (p *itemPool) get() *streamItem {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		it := p.free[n-1]
		p.free = p.free[:n-1]
		return it
	}
	return &streamItem{result: make([]byte, 0, resultLineCap)}
}

// put returns an item whose line has been written.
func (p *itemPool) put(it *streamItem) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, it)
}

// lineIter adapts the NDJSON request body to an exec.Source of stream
// items. Next is called only by the executor's feeder goroutine; the
// decoded counter is read by the handler during teardown, after the
// executor has quiesced (ParallelEval.Close waits for the feeder), plus
// concurrently for token bookkeeping — hence atomic.
type lineIter struct {
	sc      *bufio.Scanner
	dim     int
	srv     *Server
	ctx     context.Context
	seq     int64
	decoded atomic.Int64
	items   itemPool
}

func (it *lineIter) Next() (*streamItem, error) {
	for {
		if !it.sc.Scan() {
			if err := it.sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		line := bytes.TrimSpace(it.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// One admission token per in-flight tuple, held until its result is
		// emitted (released by the drain loop).
		if err := it.srv.admit(it.ctx); err != nil {
			return nil, err
		}
		it.decoded.Add(1)
		item := it.items.get()
		if err := decodeStreamLine(&item.rd, &item.line, line, it.dim); err != nil {
			return nil, err
		}
		if _, err := item.in.set(item.line.Input); err != nil {
			return nil, badReqf("%v", err)
		}
		item.seq = it.seq
		it.seq++
		return item, nil
	}
}
