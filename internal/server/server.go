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
	"net"
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

// Serve serves h on ln, over TLS when certFile or keyFile is set, until ctx
// is done, then drains: the listener closes, in-flight requests get up to
// drain to finish, and closers run in order once the HTTP server has shut
// down. It returns the error serving failed with before ctx was done, or
// nil after a drain. Shard and router processes both run on it.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, certFile, keyFile string,
	drain time.Duration, logf func(format string, args ...any), closers ...func()) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() {
		if certFile != "" || keyFile != "" {
			errCh <- hs.ServeTLS(ln, certFile, keyFile)
		} else {
			errCh <- hs.Serve(ln)
		}
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logf("signal received; draining (budget %s)", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		logf("drain incomplete: %v", err)
	}
	for _, c := range closers {
		c()
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logf("shutdown complete")
	return nil
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
			WriteError(w, Errorf(http.StatusUnauthorized, wire.CodeUnauthorized, "missing or invalid bearer token"))
			return
		}
		if s.draining.Load() {
			WriteError(w, Errorf(http.StatusServiceUnavailable, wire.CodeDraining, "server is draining"))
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
// the request with atCapacity when it fails.
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

// atCapacity is the 429 refusal of a request tryAdmit turned away.
func (s *Server) atCapacity() error {
	return Errorf(http.StatusTooManyRequests, wire.CodeOverCapacity, "at capacity (%d tuples in flight)", cap(s.inflight))
}

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
// ReadBody's, or decode's.
func DecodeBody(r *http.Request, what string, v any) error {
	body, err := ReadBody(r, nil)
	if err != nil {
		return err
	}
	var rd bytes.Reader
	return decode(&rd, body, v, nil, what)
}

// decode is the one request decoder of bodies and stream lines: it decodes
// doc into v by fast (nil for none) when fast accepts doc, else strictly by
// encoding/json reading through rd, which is the only source of refusals:
// 400 bad_spec "bad <what>: …". A fast path fills v's reused storage; the
// fallback decodes into v as encoding/json alone would.
func decode(rd *bytes.Reader, doc []byte, v any, fast func() bool, what string) error {
	if fast != nil && fast() {
		return nil
	}
	rd.Reset(doc)
	if err := decodeStrict(rd, v); err != nil {
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
			WriteError(w, fmt.Errorf("stats for %q: %w", e.Spec().Name, err))
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
		if !errors.Is(err, errAlreadyRegistered) && !errors.Is(err, errDraining) {
			err = Errorf(http.StatusBadRequest, wire.CodeBadSpec, "%v", err)
		}
		WriteError(w, err)
		return
	}
	var in inputVec
	warm := func(i int, spec wire.InputSpec) error {
		vec, err := in.set(spec)
		if err == nil && vec.Dim() != e.def.entry.Dim {
			err = fmt.Errorf("dim %d ≠ UDF dim %d", vec.Dim(), e.def.entry.Dim)
		}
		if err != nil {
			return Errorf(http.StatusBadRequest, wire.CodeBadSpec, "%v", err)
		}
		// Warm-up tuples are in-flight tuples like any other: they take an
		// admission token each, so concurrent registrations cannot run
		// unbounded learning work past MaxInFlight.
		if err := s.admit(r.Context()); err != nil {
			return err
		}
		defer s.release()
		return e.learnEval(r.Context(), vec, query.TupleSeed(req.WarmupSeed, int64(i)), nil)
	}
	for i, spec := range req.Warmup {
		if err := warm(i, spec); err != nil {
			// Roll the registration back: a half-warmed instance the client
			// thinks failed must not squat on the name.
			s.reg.remove(e.spec.Name)
			WriteError(w, fmt.Errorf("warmup[%d]: %w", i, err))
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
		WriteError(w, Errorf(http.StatusNotFound, wire.CodeNotFound, "no UDF %q registered", name))
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
		WriteError(w, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "input has %d attributes, UDF %q wants %d",
			len(req.Input), e.spec.Name, e.def.entry.Dim))
		return
	}
	vec, err := body.in.set(req.Input)
	if err != nil {
		WriteError(w, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "%v", err))
		return
	}
	if !s.tryAdmit() {
		WriteError(w, s.atCapacity())
		return
	}
	defer s.release()
	seed := query.TupleSeed(req.Seed, 0)
	if req.Learn != nil && !*req.Learn {
		// The line is written while the clone slot is borrowed: it is
		// encoded from the clone's scratch into the slot's buffer.
		if err := e.frozenEval(r.Context(), vec, seed, func(line []byte) { writeResult(w, line) }); err != nil {
			WriteError(w, err)
		}
		return
	}
	// A learned line is encoded under the learner token, from the learning
	// evaluator's scratch, and written once the token is given back.
	var line []byte
	if err := e.learnEval(r.Context(), vec, seed, func(out *core.Output) {
		line = appendResult(make([]byte, 0, resultLineCap), 0, out, e.cfg.Eps)
	}); err != nil {
		WriteError(w, err)
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

// decode reads an eval body into b.buf and decodes it into b.req.
func (b *evalBody) decode(r *http.Request) (err error) {
	if b.buf, err = ReadBody(r, b.buf); err != nil {
		return err
	}
	return decode(&b.rd, b.buf, &b.req, func() bool { return wire.DecodeEvalRequest(b.buf, &b.req) }, "eval request")
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
			WriteError(w, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "bad seed %q", sv))
			return
		}
		seed = v
	}
	// Admission probe: a stream is refused up front when the server is at
	// capacity, but the probe token is returned immediately — the stream's
	// real footprint is accounted per tuple, from admission before decode
	// to emission, by the line source both modes read, so a stream never
	// holds a standing token on top of its tuples' tokens. (With a
	// standing token, -max-inflight 1 would deadlock every stream against
	// its own first tuple.)
	if !s.tryAdmit() {
		WriteError(w, s.atCapacity())
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
	src := &lineIter{
		sc:  bufio.NewScanner(r.Body),
		dim: e.def.entry.Dim,
		srv: s,
		ctx: r.Context(),
	}
	src.sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	defer src.releaseUnemitted()
	var err error
	if learn {
		err = s.streamLearn(r.Context(), e, src, seed, w)
	} else {
		err = s.streamFrozen(r.Context(), e, src, seed, w)
	}
	if err != nil {
		_, code := errClass(err)
		json.NewEncoder(w).Encode(streamResult{EvalResult: EvalResult{Seq: src.emitted}, Error: err.Error(), ErrorCode: code})
	}
}

// streamLearn runs the stream's lines in order on the learning evaluator.
// Each result line is encoded under the learner token and written after
// it. It returns the error that ended the stream, or nil at its end.
func (s *Server) streamLearn(ctx context.Context, e *udfEntry, src *lineIter, seed int64, w io.Writer) error {
	for {
		it, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := e.learnEval(ctx, &it.in.vec, query.TupleSeed(seed, it.seq), func(out *core.Output) {
			it.result = appendResult(it.result[:0], it.seq, out, e.cfg.Eps)
		}); err != nil {
			return err
		}
		src.emit(w, it)
	}
}

// decodeStreamLine parses one request line into sl and validates its arity
// — the single definition of stream-line semantics. The fast path decodes a
// line it accepts into sl's storage; any other line is decoded by
// encoding/json, reading through rd, into the emptied sl, so a reused line
// decodes exactly as a fresh one.
func decodeStreamLine(rd *bytes.Reader, sl *streamLine, line []byte, dim int) error {
	if err := decode(rd, line, sl, func() bool { return wire.DecodeStreamLine(line, sl) }, "stream line"); err != nil {
		return err
	}
	if len(sl.Input) != dim {
		return Errorf(http.StatusBadRequest, wire.CodeBadSpec, "input has %d attributes, UDF wants %d", len(sl.Input), dim)
	}
	return nil
}

// streamFrozen maps the stream's lines over frozen clones with the exec
// executor, the line source feeding it lazily. Each worker encodes its
// item's result line from its clone's scratch, and the lines are written
// in stream order. It returns the error that ended the stream, or nil at
// its end; either way the executor has stopped pulling lines.
func (s *Server) streamFrozen(ctx context.Context, e *udfEntry, src *lineIter, seed int64, w io.Writer) error {
	pool, release, err := e.frozenPool(ctx, s.cfg.Workers)
	if err != nil {
		return err
	}
	defer release()
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
	for {
		it, err := pe.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		src.emit(w, it)
		e.served.Add(1)
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

// lineIter is the line source of both stream modes: it adapts the NDJSON
// request body to an exec.Source of stream items. Each line takes one
// in-flight admission token before it is decoded and holds it until its
// result is emitted, so a stream cannot queue unbounded work. Next is
// called by one goroutine at a time (the frozen executor's feeder, or the
// learn loop); emit and releaseUnemitted by the handler. The decoded
// counter is read by the handler while the feeder may still run, hence
// atomic.
type lineIter struct {
	sc      *bufio.Scanner
	dim     int
	srv     *Server
	ctx     context.Context
	seq     int64
	decoded atomic.Int64
	emitted int64
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
		if err := it.srv.admit(it.ctx); err != nil {
			return nil, err
		}
		it.decoded.Add(1)
		item := it.items.get()
		if err := decodeStreamLine(&item.rd, &item.line, line, it.dim); err != nil {
			return nil, err
		}
		if _, err := item.in.set(item.line.Input); err != nil {
			return nil, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "%v", err)
		}
		item.seq = it.seq
		it.seq++
		return item, nil
	}
}

// emit writes an item's result line, gives back its admission token and
// recycles the item.
func (it *lineIter) emit(w io.Writer, item *streamItem) {
	w.Write(item.result)
	it.emitted++
	it.srv.release()
	it.items.put(item)
}

// releaseUnemitted gives back the admission tokens of lines decoded but
// never emitted, once the stream has ended on an error or a cancellation
// and nothing pulls lines any more.
func (it *lineIter) releaseUnemitted() {
	for n := it.decoded.Load() - it.emitted; n > 0; n-- {
		it.srv.release()
	}
}
