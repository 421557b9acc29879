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
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"olgapro/internal/core"
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
// shard's membership epoch, POST /v1/replication/members feeds adopted
// epochs in, and POST /v1/replication/hint delivers push-replication
// seq-bump hints. All three are optional — a nil hook disables the
// corresponding behavior.
type FleetHooks struct {
	// Membership returns the shard's current membership view.
	Membership func() wire.Membership
	// AdoptMembership offers a (possibly newer) membership; reports whether
	// the shard's view changed.
	AdoptMembership func(wire.Membership) (bool, error)
	// Hint delivers a push-replication hint (owner bumped a model seq).
	// Must not block: the HTTP handler calls it inline.
	Hint func(wire.ReplicationHint)
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

// Close drains the registry: every writer loop stops and subsequent
// requests fail with 503.
func (s *Server) Close() {
	s.draining.Store(true)
	s.reg.Close()
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serve) }

// serve applies the cross-cutting policies (bearer auth, drain refusal,
// per-request deadline) and dispatches to the mux.
func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		s.fail(w, http.StatusNotFound, wire.CodeNotFound, "no route %s %s", r.Method, r.URL.Path)
		return
	}
	if tok := s.cfg.AuthToken; tok != "" && r.URL.Path != healthPath {
		got, ok := bearerToken(r)
		if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(tok)) != 1 {
			s.fail(w, http.StatusUnauthorized, wire.CodeUnauthorized, "missing or invalid bearer token")
			return
		}
	}
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
		return
	}
	timeout := s.cfg.RequestTimeout
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		if v, err := strconv.Atoi(ms); err == nil && v > 0 && time.Duration(v)*time.Millisecond < timeout {
			timeout = time.Duration(v) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	s.mux.ServeHTTP(w, r.WithContext(ctx))
}

// healthPath is exempt from auth: load balancers and fleet health checkers
// must be able to probe without credentials.
const healthPath = "/v1/healthz"

// bearerToken extracts the Authorization bearer credential.
func bearerToken(r *http.Request) (string, bool) {
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if len(h) <= len(prefix) || h[:len(prefix)] != prefix {
		return "", false
	}
	return h[len(prefix):], true
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET "+healthPath, s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	s.mux.HandleFunc("GET /v1/udfs", s.handleListUDFs)
	s.mux.HandleFunc("POST /v1/udfs", s.handleRegister)
	s.mux.HandleFunc("POST /v1/udfs/{name}/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/udfs/{name}/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/udfs/{name}/snapshot", s.handleSnapshotOne)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshotAll)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/query/partials", s.handleQueryPartials)
	s.mux.HandleFunc("GET /v1/replication/udfs", s.handleReplicationList)
	s.mux.HandleFunc("GET /v1/udfs/{name}/snapshot", s.handleSnapshotFetch)
	s.mux.HandleFunc("GET /v1/replication/members", s.handleMembershipGet)
	s.mux.HandleFunc("POST /v1/replication/members", s.handleMembershipPost)
	s.mux.HandleFunc("POST /v1/replication/hint", s.handleReplicationHint)
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

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
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

// supportHash digests the raw float64 bits of the output support: FNV-64a
// over each value's 8 little-endian bytes, as 16 zero-padded hex digits.
func supportHash(vals []float64) string {
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
	var out [16]byte
	n := len(strconv.AppendUint(out[:0], h, 16))
	copy(out[16-n:], out[:n])
	for i := 0; i < 16-n; i++ {
		out[i] = '0'
	}
	return string(out[:])
}

// resultOf flattens a core.Output into the wire form.
func resultOf(seq int64, out *core.Output, eps float64) EvalResult {
	r := EvalResult{
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
	if out.Dist != nil {
		r.Mean = out.Dist.Mean()
		r.Quantiles = map[string]float64{
			"p05": out.Dist.Quantile(0.05),
			"p25": out.Dist.Quantile(0.25),
			"p50": out.Dist.Quantile(0.50),
			"p75": out.Dist.Quantile(0.75),
			"p95": out.Dist.Quantile(0.95),
		}
		r.SupportHash = supportHash(out.Dist.Values())
	}
	return r
}

// --- basic endpoints ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, wire.HealthResponse{
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
	s.writeJSON(w, http.StatusOK, resp)
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
	s.writeJSON(w, http.StatusOK, resp)
}

// --- registration ---

func infoOf(e *udfEntry) udfInfo {
	return udfInfo{
		Name:           e.spec.Name,
		UDF:            e.spec.UDF,
		Dim:            e.def.entry.Dim,
		Eps:            e.cfg.Eps,
		Delta:          e.cfg.Delta,
		TrainingPoints: e.trainPts.Load(),
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
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "bad register request: %v", err)
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
	for i, in := range req.Warmup {
		vec, verr := in.Vector()
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
		_, err := e.learnEval(r.Context(), vec, exec.TupleSeed(req.WarmupSeed, int64(i)))
		s.release()
		if err != nil {
			s.reg.remove(e.spec.Name)
			s.failErr(w, err, "warmup[%d]: %v", i, err)
			return
		}
	}
	s.cfg.Logf("registered UDF %q (catalog %s, ε=%g δ=%g, %d warm-up tuples)",
		e.spec.Name, e.spec.UDF, e.cfg.Eps, e.cfg.Delta, len(req.Warmup))
	s.writeJSON(w, http.StatusCreated, infoOf(e))
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
	var req wire.EvalRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "bad eval request: %v", err)
		return
	}
	if len(req.Input) != e.def.entry.Dim {
		s.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "input has %d attributes, UDF %q wants %d",
			len(req.Input), e.spec.Name, e.def.entry.Dim)
		return
	}
	vec, err := req.Input.Vector()
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
	seed := exec.TupleSeed(req.Seed, 0)
	var out *core.Output
	if req.Learn == nil || *req.Learn {
		out, err = e.learnEval(r.Context(), vec, seed)
	} else {
		out, err = e.frozenEval(r.Context(), vec, seed)
	}
	if err != nil {
		s.failErr(w, err, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, resultOf(0, out, e.cfg.Eps))
}

// --- streaming ---

// handleStream evaluates an NDJSON stream of tuples. ?learn=false serves
// the whole stream from frozen clones fanned out over the exec executor —
// per-tuple seeding (exec.TupleSeed over ?seed=S and the line number) makes
// the response bytes a deterministic function of the model state, so a
// snapshot-restored server replays a session bit-identically. The default
// learn mode routes every tuple through the single-writer loop with the
// same per-line seed derivation.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
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
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil && s.cfg.Logf != nil {
		s.cfg.Logf("stream: full duplex unavailable: %v", err)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	fail := func(seq int64, err error) {
		_, code := errClass(err)
		enc.Encode(streamResult{EvalResult: EvalResult{Seq: seq}, Error: err.Error(), ErrorCode: code})
	}
	if learn {
		s.streamLearn(r.Context(), e, r.Body, seed, enc, fail)
	} else {
		s.streamFrozen(r.Context(), e, r.Body, seed, enc, fail)
	}
}

// streamLearn runs the stream sequentially through the writer loop, taking
// one in-flight token per tuple for the duration of its evaluation.
func (s *Server) streamLearn(ctx context.Context, e *udfEntry, body io.Reader,
	seed int64, enc *json.Encoder, fail func(int64, error)) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var seq int64
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		spec, err := decodeStreamLine(line, e.def.entry.Dim)
		if err != nil {
			fail(seq, err)
			return
		}
		vec, err := spec.Vector()
		if err != nil {
			fail(seq, badReqf("%v", err))
			return
		}
		if err := s.admit(ctx); err != nil {
			fail(seq, err)
			return
		}
		out, err := e.learnEval(ctx, vec, exec.TupleSeed(seed, seq))
		s.release()
		if err != nil {
			fail(seq, err)
			return
		}
		enc.Encode(streamResult{EvalResult: resultOf(seq, out, e.cfg.Eps)})
		seq++
	}
	if err := sc.Err(); err != nil {
		fail(seq, err)
	}
}

// decodeStreamLine parses one request line and validates its arity — the
// single definition of stream-line semantics, shared by the learn path and
// the frozen pipeline source so both reject malformed lines identically.
func decodeStreamLine(line []byte, dim int) (wire.InputSpec, error) {
	var sl streamLine
	if err := decodeStrict(bytes.NewReader(line), &sl); err != nil {
		return nil, badReqf("bad stream line: %v", err)
	}
	if len(sl.Input) != dim {
		return nil, badReqf("input has %d attributes, UDF wants %d", len(sl.Input), dim)
	}
	return sl.Input, nil
}

// streamFrozen fans the stream over frozen clones via the exec executor.
// The NDJSON decode is itself the pipeline source: tuples are pulled
// lazily, each one holding an in-flight admission token from decode to
// emission, so a stream cannot queue unbounded work.
func (s *Server) streamFrozen(ctx context.Context, e *udfEntry, body io.Reader,
	seed int64, enc *json.Encoder, fail func(int64, error)) {
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
	pe := pool.Apply(src, wire.AttrNames(e.def.entry.Dim), "y", exec.Options{
		Ctx:  ctx,
		Seed: seed,
	})
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
		t, err := pe.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			fail(emitted, err)
			return
		}
		v := t.MustGet("y")
		seq := t.MustGet("id").I
		enc.Encode(streamResult{EvalResult: resultOf(seq, v.Out, e.cfg.Eps)})
		emitted++
		s.release()
		e.served.Add(1)
	}
}

// lineIter adapts the NDJSON request body to a query.Iterator. Next is
// called only by the executor's feeder goroutine; the decoded counter is
// read by the handler during teardown, after the executor has quiesced
// (ParallelEval.Close waits for the feeder), plus concurrently for token
// bookkeeping — hence atomic.
type lineIter struct {
	sc      *bufio.Scanner
	dim     int
	srv     *Server
	ctx     context.Context
	seq     int64
	decoded atomic.Int64
}

func (it *lineIter) Next() (*query.Tuple, error) {
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
		spec, err := decodeStreamLine(line, it.dim)
		if err != nil {
			return nil, err
		}
		t, err := spec.Tuple(it.seq)
		if err != nil {
			return nil, err
		}
		it.seq++
		return t, nil
	}
}
