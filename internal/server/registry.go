// Package server is the network serving layer: a stdlib-only HTTP/JSON
// service exposing the full evaluation pipeline — register a UDF from the
// built-in catalog, submit single tuples or NDJSON streams of uncertain
// inputs, and receive output distributions with their (ε, δ) error bounds —
// so one learned GP emulator is reused across many requests instead of
// living and dying inside one process invocation. The public HTTP surface
// lives under /v1/ (see internal/server/wire for every request/response
// type); no path outside /v1 is served.
//
// # Concurrency model
//
// A core.Evaluator is single-goroutine by design (it owns a mutable model
// and a scratch workspace), so each registered UDF gets:
//
//   - one warm, tuning-enabled evaluator guarded by a one-token lock (the
//     learner token): learning tuples, replica swaps, ownership flips and
//     stats each take the token, run on the caller's goroutine and give it
//     back, so they run one at a time, in arrival order. A learned tuple's
//     result line is encoded from the evaluator's scratch while the token
//     is held;
//   - one published model view per model sequence number: before each
//     sequence bump (and at start and on a replica swap) the token holder
//     stores an immutable core.View of its model behind one atomic pointer.
//     A view costs a copy of the hyperparameters and, on the sparse path,
//     of the inducing indices; it shares the append-only training pairs;
//   - one frozen model per view (core.Frozen), built by the first reader
//     that needs it, without the token and exactly once, and the snapshot
//     bytes of the view, encoded by the first snapshot reader and served to
//     every replica fetch at that sequence;
//   - a fixed set of clone slots for read traffic, each a frozen evaluator
//     with its own scratch and generator over the shared frozen model:
//     frozen evaluation is a pure function of (input, rng), so borrowed
//     slots may run concurrently, and a stream request can fan its tuples
//     across several slots through the exec.Pool executor with
//     bit-deterministic per-tuple seeding (query.TupleSeed).
//
// A borrowed slot whose sequence is behind the published view repoints its
// evaluator at the view's frozen model, so reads see every learn answered
// before they were issued and never queue behind a learning tuple.
//
// # Fleet role
//
// In a sharded fleet one process is the *owner* (writer) of each UDF and
// the others host frozen *replicas*: entries installed from the owner's
// versioned snapshots (InstallReplica), ordered by the per-UDF model
// sequence number, that serve read traffic but refuse learning with
// not_owner. The registry's replication version is a process-local
// monotonic counter bumped on every model mutation; pollers long-poll it
// (WaitReplication) to subscribe to deltas.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/exec"
	"olgapro/internal/mc"
	"olgapro/internal/query"
	"olgapro/internal/server/wire"
)

// Sentinel errors the HTTP layer maps to status codes and envelope codes.
var (
	// errDraining: the server is shutting down.
	errDraining = errors.New("server: draining")
	// errNotWarm: frozen (read) traffic requires a model with ≥ 2 training
	// points; stream with learn=true (the default) first.
	errNotWarm = errors.New("server: model not warm yet — run learning traffic or restore a snapshot first")
	// errAlreadyRegistered: the instance name is taken (HTTP 409).
	errAlreadyRegistered = errors.New("already registered")
	// errNotOwner: learning traffic hit a frozen replica; the writer for
	// this UDF lives on another shard.
	errNotOwner = errors.New("server: instance is a read replica — route learning traffic to the owning shard")
)

// nameRe restricts registered UDF names: they appear in URL paths and
// snapshot file names, so no separators or dots-only segments.
var nameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]*$`)

// RegisterSpec is the persistent registration record, shared with the wire
// surface (it doubles as snapshot metadata and as the replication spec a
// replica installs from).
type RegisterSpec = wire.RegisterSpec

// DefaultInstanceName is the instance name a registration gets when the
// request leaves "name" empty: the catalog name with "/" replaced by "-".
// Exported through the wire/client layers so the router can compute the
// owning shard for a registration before forwarding it.
func DefaultInstanceName(udfName string) string {
	return strings.ReplaceAll(udfName, "/", "-")
}

// normalizeSpec validates a RegisterSpec and applies naming defaults.
func normalizeSpec(s RegisterSpec) (RegisterSpec, error) {
	if s.UDF == "" {
		return s, errors.New("server: register needs \"udf\" (a catalog name; see GET /v1/catalog)")
	}
	if s.Name == "" {
		s.Name = DefaultInstanceName(s.UDF)
	}
	if !nameRe.MatchString(s.Name) {
		return s, fmt.Errorf("server: invalid name %q (want %s)", s.Name, nameRe)
	}
	if s.Eps < 0 || s.Delta < 0 {
		return s, fmt.Errorf("server: negative eps/delta (%g, %g)", s.Eps, s.Delta)
	}
	if s.Sparse != nil {
		var probe core.Config
		if err := s.Sparse.Apply(&probe); err != nil {
			return s, err
		}
	}
	return s, nil
}

// modelView is one published model sequence: the learner's core.View at
// seq, and what readers build from it at most once — the frozen model the
// clone slots share and the snapshot bytes replicas fetch. A view whose
// core.View could not be taken carries that error (err) for every reader.
type modelView struct {
	seq    int64
	points int
	view   *core.View
	err    error

	buildOnce sync.Once
	frozen    *core.Frozen
	buildErr  error

	snapOnce sync.Once
	snap     []byte
	snapErr  error
}

// cloneSlot is one frozen-clone capacity unit. ev is nil until first use;
// at is the view whose frozen model ev reads, compared against the
// published view to detect staleness (a replica swap moves the model
// without changing the training-point count, so staleness is keyed on the
// view, not the point count). eng wraps ev for the executor. rng is the
// slot's tuple generator for single frozen evals, built on the first one:
// streams and queries run the slot's engine with their workers' own
// generators. line is the buffer a single frozen eval encodes its result
// line into.
type cloneSlot struct {
	ev   *core.Evaluator
	eng  query.Engine
	at   *modelView
	rng  *rand.Rand
	line []byte
}

// udfEntry is one registered UDF instance.
type udfEntry struct {
	spec      RegisterSpec
	def       catalogDef
	cfg       core.Config
	mcSamples int // per-input UDF calls Monte Carlo would need at (ε, δ)

	// replica marks a frozen read replica: learning traffic is refused
	// with errNotOwner, and InstallReplica may swap in newer snapshots.
	// Atomic because fleet handoff flips it at runtime (Promote/Demote)
	// while read/stat paths observe it concurrently.
	replica atomic.Bool

	// ev is the learning evaluator. Only the holder of the learner token
	// touches it, and a replica swap replaces it under the token.
	ev *core.Evaluator
	// cur is the published view of ev: the entry's model sequence and
	// training-set size, stored by the token holder only.
	cur atomic.Pointer[modelView]
	// learnRng is the learning path's tuple generator, reseeded per tuple.
	// Like ev, only the token holder touches it.
	learnRng *rand.Rand

	// learner holds the one token that serializes every use of ev; quit is
	// closed when the entry drains. stopOnce guards both: Registry.Close
	// and the registration rollback path (remove) can race on the same
	// entry during shutdown, and a double close would panic the process.
	learner  chan struct{}
	quit     chan struct{}
	stopOnce sync.Once

	served atomic.Int64 // tuples served (learning + frozen)
	// builds and encodes count frozen-model builds and snapshot encodes.
	builds, encodes atomic.Int64

	// bump is called (by the token holder) whenever the model sequence
	// advances, so the registry's replication version wakes long-pollers.
	bump func()

	slots chan *cloneSlot
}

// stop drains the entry, idempotently: it refuses every queued and later
// learner, waits for the token's holder to finish and keeps the token.
func (e *udfEntry) stop() {
	e.stopOnce.Do(func() {
		close(e.quit)
		<-e.learner
	})
}

// Spec returns the registration record (used as snapshot metadata).
func (e *udfEntry) Spec() RegisterSpec { return e.spec }

// Seq returns the entry's current model sequence number.
func (e *udfEntry) Seq() int64 { return e.cur.Load().seq }

// Points returns the training-set size at the current model sequence.
func (e *udfEntry) Points() int { return e.cur.Load().points }

// Replica reports whether the entry is a frozen read replica.
func (e *udfEntry) Replica() bool { return e.replica.Load() }

// publish stores the view of e.ev as the entry's model at seq. Only the
// token holder calls it, or the constructor before the entry is shared.
func (e *udfEntry) publish(seq int64) {
	v := &modelView{seq: seq, points: e.ev.Points()}
	v.view, v.err = e.ev.View()
	e.cur.Store(v)
}

// withWriter takes the learner token and runs fn with the entry's
// evaluator on the caller's goroutine. Waiters take the token in arrival
// order. One whose ctx fires while it waits, or that is handed the token
// after ctx fired or once the entry drains, does not run fn. A model fn
// grew is published as the next sequence before the token is given back,
// so a read issued after the caller answers sees the growth.
func (e *udfEntry) withWriter(ctx context.Context, fn func(ev *core.Evaluator) error) error {
	select {
	case <-e.learner:
	case <-ctx.Done():
		return ctx.Err()
	case <-e.quit:
		return errDraining
	}
	defer func() { e.learner <- struct{}{} }()
	select {
	case <-e.quit:
		return errDraining
	default:
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	err := fn(e.ev)
	// A swap publishes its own sequence, so only growth of the published
	// evaluator is left to publish here.
	if e.ev.Points() != e.cur.Load().points {
		e.publish(e.Seq() + 1)
		e.bump()
	}
	return err
}

// swapModel atomically replaces the entry's evaluator with one restored
// from a newer snapshot — the replica ingestion path. The new view
// invalidates every clone slot, so subsequent reads repoint their
// evaluators at the new model.
func (e *udfEntry) swapModel(ctx context.Context, ev *core.Evaluator, seq int64) error {
	return e.withWriter(ctx, func(*core.Evaluator) error {
		if seq <= e.Seq() {
			return nil // stale delta: the installed state is already newer
		}
		e.ev = ev
		// Publish at the owner's sequence directly (a snapshot delta jumps
		// the counter rather than incrementing it) and wake replication
		// pollers.
		e.publish(seq)
		e.bump()
		return nil
	})
}

// learnEval evaluates one input on the learning evaluator (online tuning
// and retraining enabled) with the given deterministic seed, and hands the
// output to emit, when non-nil, while it still holds the token: the output
// lives in the evaluator's scratch, which the next learner reuses. emit
// runs before the tuple's growth is published, so it encodes and the
// caller answers once learnEval returns. A tuple whose ctx fires while it
// runs stays learned but is not emitted: it answers ctx's error.
func (e *udfEntry) learnEval(ctx context.Context, input dist.Vector, seed int64, emit func(out *core.Output)) error {
	return e.withWriter(ctx, func(ev *core.Evaluator) error {
		// Checked under the token so a concurrent Demote is linearized:
		// once the demote has run, no learning tuple can land on the (now
		// replica) entry.
		if e.replica.Load() {
			return errNotOwner
		}
		if e.learnRng == nil {
			e.learnRng = query.NewTupleRand()
		}
		e.learnRng.Seed(seed)
		out, err := ev.EvalBorrowed(input, e.learnRng)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		e.served.Add(1)
		if emit != nil {
			emit(out)
		}
		return nil
	})
}

// borrowFrozen takes one frozen-clone slot, repointing it at the published
// model if the learner has grown it since. Blocks (under ctx) when all slots
// are in use — the read path's intrinsic backpressure.
func (e *udfEntry) borrowFrozen(ctx context.Context) (*cloneSlot, error) {
	select {
	case s := <-e.slots:
		if err := e.ensureFresh(s, e.cur.Load()); err != nil {
			e.slots <- s
			return nil, err
		}
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.quit:
		return nil, errDraining
	}
}

// borrowMore opportunistically takes up to extra additional slots without
// blocking, for stream fan-out, each pointed at the model of v so that one
// stream is served by one model. Slots that fail to refresh are returned.
func (e *udfEntry) borrowMore(v *modelView, extra int) []*cloneSlot {
	var out []*cloneSlot
	for len(out) < extra {
		select {
		case s := <-e.slots:
			if err := e.ensureFresh(s, v); err != nil {
				e.slots <- s
				return out
			}
			out = append(out, s)
		default:
			return out
		}
	}
	return out
}

// returnSlot gives a borrowed slot back. Never blocks: slot capacity is
// fixed at construction.
func (e *udfEntry) returnSlot(s *cloneSlot) { e.slots <- s }

// ensureFresh points the slot's evaluator at the frozen model of v when it
// has none or reads another one. The slot keeps its evaluator, whose
// scratch and generator outlive the model change.
func (e *udfEntry) ensureFresh(s *cloneSlot, v *modelView) error {
	if s.at == v {
		return nil
	}
	m, err := e.frozenModel(v)
	if err != nil {
		return err
	}
	if s.ev == nil {
		s.ev = m.Evaluator()
		s.eng = query.NewEvaluatorEngine(s.ev)
	} else {
		s.ev.Rebind(m)
	}
	s.at = v
	return nil
}

// frozenModel returns the view's frozen model, building it on the first
// call: concurrent callers at one sequence wait for that one build, and a
// build error answers every read at that sequence.
func (e *udfEntry) frozenModel(v *modelView) (*core.Frozen, error) {
	if v.points < 2 {
		return nil, errNotWarm
	}
	v.buildOnce.Do(func() {
		if v.buildErr = v.err; v.err == nil {
			e.builds.Add(1)
			v.frozen, v.buildErr = v.view.Build()
		}
	})
	return v.frozen, v.buildErr
}

// frozenEval evaluates one input on a frozen clone with the given seed —
// bit-identical to the same input appearing as the first line of a frozen
// stream with the same base seed — and hands its result line to emit while
// the slot is still borrowed: the line is encoded from the clone's scratch
// into the slot's buffer, both of which the slot's next borrower reuses.
func (e *udfEntry) frozenEval(ctx context.Context, input dist.Vector, seed int64, emit func(line []byte)) error {
	s, err := e.borrowFrozen(ctx)
	if err != nil {
		return err
	}
	defer e.returnSlot(s)
	if s.rng == nil {
		s.rng = query.NewTupleRand()
	}
	s.rng.Seed(seed)
	out, err := query.Borrowed(s.eng, input, s.rng)
	if err != nil {
		return err
	}
	s.line = appendResult(s.line[:0], 0, out, e.cfg.Eps)
	e.served.Add(1)
	emit(s.line)
	return nil
}

// frozenPool borrows up to max slots, all reading one frozen model, and
// wraps them as an exec.Pool for a stream request. The caller must call the
// returned release exactly once.
func (e *udfEntry) frozenPool(ctx context.Context, max int) (*exec.Pool, func(), error) {
	first, err := e.borrowFrozen(ctx)
	if err != nil {
		return nil, nil, err
	}
	slots := append([]*cloneSlot{first}, e.borrowMore(first.at, max-1)...)
	engines := make([]query.Engine, len(slots))
	for i, s := range slots {
		engines[i] = s.eng
	}
	pool, err := exec.NewPool(engines...)
	if err != nil {
		for _, s := range slots {
			e.returnSlot(s)
		}
		return nil, nil, err
	}
	release := func() {
		for _, s := range slots {
			e.returnSlot(s)
		}
	}
	return pool, release, nil
}

// snapshot returns the versioned snapshot bytes of the published model,
// stamped with its sequence. The bytes are encoded once per sequence, by
// the first caller, and shared by every later one: they must not be
// modified.
func (e *udfEntry) snapshot() (data []byte, points int, seq int64, err error) {
	v := e.cur.Load()
	v.snapOnce.Do(func() {
		if v.snapErr = v.err; v.err != nil {
			return
		}
		e.encodes.Add(1)
		s, err := v.view.Snapshot()
		if err != nil {
			v.snapErr = err
			return
		}
		s.ModelSeq = v.seq
		var buf bytes.Buffer
		if v.snapErr = core.WriteSnapshot(&buf, s); v.snapErr == nil {
			v.snap = buf.Bytes()
		}
	})
	return v.snap, v.points, v.seq, v.snapErr
}

// UDFStats is the per-UDF /v1/stats record, shared with the wire surface.
type UDFStats = wire.UDFStats

// stats gathers the entry's counters (core counters under the token).
func (e *udfEntry) stats(ctx context.Context) (UDFStats, error) {
	st := UDFStats{
		Name:              e.spec.Name,
		UDF:               e.spec.UDF,
		Eps:               e.cfg.Eps,
		Delta:             e.cfg.Delta,
		Inputs:            e.served.Load(),
		MCSamplesPerInput: e.mcSamples,
	}
	err := e.withWriter(ctx, func(ev *core.Evaluator) error {
		s := ev.Stats()
		st.TrainingPoints = s.TrainingPoints
		st.UDFCalls = s.UDFCalls
		st.Retrainings = s.Retrainings
		st.Filtered = s.Filtered
		return nil
	})
	if err != nil {
		return st, err
	}
	st.MCEquivalentCalls = st.Inputs * int64(st.MCSamplesPerInput)
	st.SavedCalls = st.MCEquivalentCalls - int64(st.UDFCalls)
	if st.MCEquivalentCalls > 0 {
		st.SavingsRatio = float64(st.SavedCalls) / float64(st.MCEquivalentCalls)
	}
	return st, nil
}

// Registry maps instance names to registered UDF entries.
type Registry struct {
	workers int

	mu      sync.Mutex
	entries map[string]*udfEntry
	closed  bool

	// Replication version: a process-local monotonic counter bumped on
	// every model mutation of any entry (and on registration). watch is
	// closed and replaced on every bump, waking WaitReplication pollers.
	version atomic.Int64
	watchMu sync.Mutex
	watch   chan struct{}
}

// NewRegistry builds an empty registry; workers is the frozen-clone slot
// count per UDF (≤ 0 means 1).
func NewRegistry(workers int) *Registry {
	if workers <= 0 {
		workers = 1
	}
	return &Registry{
		workers: workers,
		entries: make(map[string]*udfEntry),
		watch:   make(chan struct{}),
	}
}

// bumpVersion advances the replication version and wakes pollers.
func (r *Registry) bumpVersion() {
	r.watchMu.Lock()
	r.version.Add(1)
	close(r.watch)
	r.watch = make(chan struct{})
	r.watchMu.Unlock()
}

// WaitReplication blocks until the replication version exceeds since or
// ctx fires, returning the version seen. since < 0 returns immediately.
// The version and the channel its next bump closes are read in one watchMu
// section, so a bump between the two cannot leave the waiter on a channel
// that only the bump after it closes.
func (r *Registry) WaitReplication(ctx context.Context, since int64) int64 {
	for {
		r.watchMu.Lock()
		v, ch := r.version.Load(), r.watch
		r.watchMu.Unlock()
		if v > since || since < 0 {
			return v
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return r.version.Load()
		}
	}
}

// newEvaluator validates the spec and builds its evaluator, restored from
// snap when non-nil. It is the one way a spec becomes an evaluator, whether
// the spec comes from a registration, a snapshot on boot, or a peer's
// replication headers.
func newEvaluator(spec RegisterSpec, snap *core.Snapshot) (RegisterSpec, catalogDef, *core.Evaluator, error) {
	spec, err := normalizeSpec(spec)
	if err != nil {
		return spec, catalogDef{}, nil, err
	}
	def, err := lookupCatalog(spec.UDF)
	if err != nil {
		return spec, def, nil, err
	}
	cfg := core.Config{Eps: spec.Eps, Delta: spec.Delta, Kernel: def.kernel()}
	if spec.Sparse != nil {
		if err := spec.Sparse.Apply(&cfg); err != nil {
			return spec, def, nil, err
		}
	}
	var ev *core.Evaluator
	if snap != nil {
		ev, err = core.Restore(def.mkUDF(), cfg, snap)
	} else {
		ev, err = core.NewEvaluator(def.mkUDF(), cfg)
	}
	return spec, def, ev, err
}

// newEntry builds (but does not install) an entry for the spec.
func (r *Registry) newEntry(spec RegisterSpec, snap *core.Snapshot, replica bool) (*udfEntry, error) {
	spec, def, ev, err := newEvaluator(spec, snap)
	if err != nil {
		return nil, err
	}
	var seq int64
	if snap != nil {
		seq = snap.ModelSeq
	}
	ncfg := ev.Config() // normalized: defaults applied
	e := &udfEntry{
		spec:      spec,
		def:       def,
		cfg:       ncfg,
		mcSamples: mc.SampleSize(ncfg.Eps, ncfg.Delta, mc.MetricDiscrepancy),
		learner:   make(chan struct{}, 1),
		quit:      make(chan struct{}),
		bump:      r.bumpVersion,
		slots:     make(chan *cloneSlot, r.workers),
	}
	e.replica.Store(replica)
	e.learner <- struct{}{}
	for i := 0; i < r.workers; i++ {
		e.slots <- &cloneSlot{}
	}
	e.ev = ev
	e.publish(seq)
	return e, nil
}

// install adds a constructed entry under lock.
func (r *Registry) install(e *udfEntry) (*udfEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errDraining
	}
	if _, dup := r.entries[e.spec.Name]; dup {
		return nil, fmt.Errorf("server: UDF %q %w", e.spec.Name, errAlreadyRegistered)
	}
	r.entries[e.spec.Name] = e
	return e, nil
}

// Register creates a UDF instance. With a non-nil snapshot, the evaluator
// is restored from it (boot-time restore) and the model sequence resumes
// from the snapshot's ModelSeq.
func (r *Registry) Register(spec RegisterSpec, snap *core.Snapshot) (*udfEntry, error) {
	e, err := r.newEntry(spec, snap, false)
	if err != nil {
		return nil, err
	}
	e, err = r.install(e)
	if err == nil {
		r.bumpVersion()
	}
	return e, err
}

// InstallReplica creates or refreshes a frozen read replica from an
// owner's versioned snapshot. A new entry is installed when the name is
// unknown; an existing replica entry swaps its evaluator when the
// snapshot's sequence is newer (stale deltas are ignored). Installing over
// an owned (writer) entry is refused — a shard never demotes its own
// writer because a peer claims the name.
func (r *Registry) InstallReplica(spec RegisterSpec, snap *core.Snapshot) error {
	if snap == nil {
		return errors.New("server: replica install needs a snapshot")
	}
	r.mu.Lock()
	existing, ok := r.entries[spec.Name]
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return errDraining
	}
	if ok {
		if !existing.Replica() {
			return fmt.Errorf("server: UDF %q is owned here; refusing replica install", spec.Name)
		}
		if snap.ModelSeq <= existing.Seq() {
			return nil // already current
		}
		// Rebuild an evaluator from the snapshot and swap it in under the
		// learner token; in-flight reads finish on the old model. The swap
		// bumps the registry version itself.
		_, _, ev, err := newEvaluator(spec, snap)
		if err != nil {
			return err
		}
		return existing.swapModel(context.Background(), ev, snap.ModelSeq)
	}
	e, err := r.newEntry(spec, snap, true)
	if err != nil {
		return err
	}
	if _, err := r.install(e); err != nil {
		return err
	}
	r.bumpVersion()
	return nil
}

// Promote flips a replica entry to owner (writer). Used by the fleet
// handoff path once this shard's replica has caught up to the departing
// owner's model sequence: the model bytes are already identical, so
// promotion only changes who accepts learning traffic. The flip runs
// under the learner token, linearizing it against in-flight learns, and
// bumps the replication version (not the model sequence — the model did
// not change) so peers see the new Owned advertisement.
func (r *Registry) Promote(ctx context.Context, name string) error {
	e, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("server: promote: UDF %q not hosted here", name)
	}
	if !e.Replica() {
		return nil // already the owner
	}
	err := e.withWriter(ctx, func(*core.Evaluator) error {
		e.replica.Store(false)
		return nil
	})
	if err == nil {
		r.bumpVersion()
	}
	return err
}

// Demote flips an owned entry to replica — the other half of handoff,
// taken by the old owner once the new owner advertises ownership at a
// model sequence ≥ its own. Running under the learner token guarantees no
// learning tuple is accepted after the flip (learnEval re-checks under the
// token), so the final owned sequence the new owner caught up to is
// genuinely final.
func (r *Registry) Demote(ctx context.Context, name string) error {
	e, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("server: demote: UDF %q not hosted here", name)
	}
	if e.Replica() {
		return nil // already a replica
	}
	err := e.withWriter(ctx, func(*core.Evaluator) error {
		e.replica.Store(true)
		return nil
	})
	if err == nil {
		r.bumpVersion()
	}
	return err
}

// remove deregisters and stops an entry — the rollback path when a
// registration's warm-up fails after the entry was installed.
func (r *Registry) remove(name string) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if ok {
		delete(r.entries, name)
	}
	r.mu.Unlock()
	if ok {
		e.stop()
		r.bumpVersion()
	}
}

// Get returns the named entry.
func (r *Registry) Get(name string) (*udfEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	return e, ok
}

// List returns all entries sorted by name.
func (r *Registry) List() []*udfEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*udfEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec.Name < out[j].spec.Name })
	return out
}

// ReplicationStates lists every hosted UDF with its model sequence and
// ownership, for GET /v1/replication/udfs.
func (r *Registry) ReplicationStates() []wire.ReplicaState {
	entries := r.List()
	out := make([]wire.ReplicaState, len(entries))
	for i, e := range entries {
		out[i] = wire.ReplicaState{
			Name:  e.spec.Name,
			Seq:   e.Seq(),
			Owned: !e.Replica(),
			Spec:  e.spec,
		}
	}
	return out
}

// Close drains every entry and marks the registry draining. Each entry's
// token holder finishes before Close returns; queued and later learners
// fail with errDraining.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	entries := make([]*udfEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	for _, e := range entries {
		e.stop()
	}
}
