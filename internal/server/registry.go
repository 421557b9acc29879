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
//   - one warm, tuning-enabled evaluator owned by a single-writer loop: all
//     learning traffic, snapshots, and clone construction are closures
//     executed serially by that goroutine;
//   - a fixed set of frozen-clone slots (core.CloneFrozen) for read
//     traffic: frozen evaluation is a pure function of (input, rng), so
//     borrowed clones may run concurrently, and a stream request can fan
//     its tuples across several slots through the existing exec.Pool
//     executor with bit-deterministic per-tuple seeding (exec.TupleSeed).
//
// Slots record the training-set size their clone was built at and are
// transparently rebuilt when the writer has learned since, so read traffic
// always sees the latest knowledge without ever blocking behind a learning
// tuple.
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
	"context"
	"errors"
	"fmt"
	"io"
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

// writerReq is one closure travelling to an entry's single-writer loop.
type writerReq struct {
	fn   func() error
	resp chan error // buffered: the writer never blocks on an abandoned caller
}

// cloneSlot is one frozen-clone capacity unit. eng is nil until first use;
// seq is the model sequence the clone was built at, compared against the
// entry's live counter to detect staleness (a replica swap bumps the
// sequence without changing the training-point count, so staleness is
// keyed on the sequence, not the point count). rng is the slot's tuple
// generator for single frozen evals, built on the first one: streams and
// queries run the slot's engine with their workers' own generators.
type cloneSlot struct {
	eng query.Engine
	seq int64
	rng *rand.Rand
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

	// ev is the evaluator owned by the single-writer loop. Only closures
	// executed by that loop may touch it; the field itself is mutated only
	// by swap closures running on the loop.
	ev *core.Evaluator
	// learnRng is the learning path's tuple generator, reseeded per tuple.
	// Like ev, only closures run by the writer loop touch it.
	learnRng *rand.Rand

	reqs chan writerReq
	quit chan struct{}
	done chan struct{}
	// stopOnce guards close(quit): Registry.Close and the registration
	// rollback path (remove) can race on the same entry during shutdown,
	// and a double close would panic the process.
	stopOnce sync.Once

	trainPts atomic.Int64 // training-set size, maintained by the writer side
	modelSeq atomic.Int64 // per-UDF model sequence, bumped on every mutation
	served   atomic.Int64 // tuples served (learning + frozen)

	// bump is called (from the writer loop) whenever modelSeq advances, so
	// the registry's replication version can wake long-pollers.
	bump func()

	slots chan *cloneSlot
}

// stop shuts the entry's writer loop down, idempotently, and waits for it.
func (e *udfEntry) stop() {
	e.stopOnce.Do(func() { close(e.quit) })
	<-e.done
}

// Spec returns the registration record (used as snapshot metadata).
func (e *udfEntry) Spec() RegisterSpec { return e.spec }

// Seq returns the entry's current model sequence number.
func (e *udfEntry) Seq() int64 { return e.modelSeq.Load() }

// Replica reports whether the entry is a frozen read replica.
func (e *udfEntry) Replica() bool { return e.replica.Load() }

// startWriter runs the single-writer loop that owns e.ev. seq seeds the
// model sequence counter (restored from snapshot metadata on boot so the
// ordering survives restarts; 0 for a fresh registration).
func (e *udfEntry) startWriter(ev *core.Evaluator, seq int64) {
	e.ev = ev
	e.trainPts.Store(int64(ev.Points()))
	e.modelSeq.Store(seq)
	go func() {
		defer close(e.done)
		for {
			select {
			case <-e.quit:
				return
			case req := <-e.reqs:
				prevEv, prevPts := e.ev, e.ev.Points()
				req.resp <- req.fn()
				if e.ev != prevEv {
					// A swap closure installed a new evaluator and stamped
					// trainPts/modelSeq itself; nothing to reconcile.
					continue
				}
				after := int64(e.ev.Points())
				e.trainPts.Store(after)
				if after != int64(prevPts) {
					e.modelSeq.Add(1)
					if e.bump != nil {
						e.bump()
					}
				}
			}
		}
	}()
}

// withWriter runs fn on the entry's evaluator from the single-writer loop,
// honoring ctx while queued (a deadline that fires before the writer gets
// to the closure cancels it without running).
func (e *udfEntry) withWriter(ctx context.Context, fn func(ev *core.Evaluator) error) error {
	req := writerReq{resp: make(chan error, 1)}
	req.fn = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(e.ev)
	}
	select {
	case e.reqs <- req:
	case <-ctx.Done():
		return ctx.Err()
	case <-e.quit:
		return errDraining
	}
	select {
	case err := <-req.resp:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-e.quit:
		return errDraining
	}
}

// swapModel atomically replaces the entry's evaluator with one restored
// from a newer snapshot — the replica ingestion path. The sequence bump
// invalidates every frozen-clone slot, so subsequent reads rebuild their
// clones from the new model.
func (e *udfEntry) swapModel(ctx context.Context, ev *core.Evaluator, seq int64) error {
	req := writerReq{resp: make(chan error, 1)}
	req.fn = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if seq <= e.modelSeq.Load() {
			return nil // stale delta: the installed state is already newer
		}
		e.ev = ev
		// Stamp the owner's sequence directly (a snapshot delta jumps the
		// counter rather than incrementing it) and wake replication
		// pollers; the loop skips its own bookkeeping on swaps.
		e.trainPts.Store(int64(ev.Points()))
		e.modelSeq.Store(seq)
		if e.bump != nil {
			e.bump()
		}
		return nil
	}
	select {
	case e.reqs <- req:
	case <-ctx.Done():
		return ctx.Err()
	case <-e.quit:
		return errDraining
	}
	select {
	case err := <-req.resp:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-e.quit:
		return errDraining
	}
}

// learnEval evaluates one input on the learning evaluator (online tuning
// and retraining enabled) with the given deterministic seed.
func (e *udfEntry) learnEval(ctx context.Context, input dist.Vector, seed int64) (*core.Output, error) {
	var out *core.Output
	err := e.withWriter(ctx, func(ev *core.Evaluator) error {
		// Checked inside the writer loop so a concurrent Demote is
		// linearized: once the demote closure has run, no learning tuple
		// can land on the (now replica) entry.
		if e.replica.Load() {
			return errNotOwner
		}
		if e.learnRng == nil {
			e.learnRng = query.NewTupleRand()
		}
		e.learnRng.Seed(seed)
		o, err := ev.Eval(input, e.learnRng)
		if err != nil {
			return err
		}
		out = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.served.Add(1)
	return out, nil
}

// borrowFrozen takes one frozen-clone slot, rebuilding its clone if the
// writer has learned since it was last built. Blocks (under ctx) when all
// slots are in use — the read path's intrinsic backpressure.
func (e *udfEntry) borrowFrozen(ctx context.Context) (*cloneSlot, error) {
	select {
	case s := <-e.slots:
		if err := e.ensureFresh(ctx, s); err != nil {
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
// blocking, for stream fan-out. Slots that fail to refresh are returned.
func (e *udfEntry) borrowMore(ctx context.Context, extra int) []*cloneSlot {
	var out []*cloneSlot
	for len(out) < extra {
		select {
		case s := <-e.slots:
			if err := e.ensureFresh(ctx, s); err != nil {
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

// ensureFresh rebuilds the slot's clone when missing or stale.
func (e *udfEntry) ensureFresh(ctx context.Context, s *cloneSlot) error {
	if s.eng != nil && s.seq == e.modelSeq.Load() {
		return nil
	}
	return e.withWriter(ctx, func(ev *core.Evaluator) error {
		if ev.Points() < 2 {
			return errNotWarm
		}
		c, err := ev.CloneFrozen()
		if err != nil {
			return err
		}
		s.eng = query.NewEvaluatorEngine(c)
		s.seq = e.modelSeq.Load()
		return nil
	})
}

// frozenEval evaluates one input on a frozen clone with the given seed —
// bit-identical to the same input appearing as the first line of a frozen
// stream with the same base seed.
func (e *udfEntry) frozenEval(ctx context.Context, input dist.Vector, seed int64) (*core.Output, error) {
	s, err := e.borrowFrozen(ctx)
	if err != nil {
		return nil, err
	}
	defer e.returnSlot(s)
	if s.rng == nil {
		s.rng = query.NewTupleRand()
	}
	s.rng.Seed(seed)
	out, err := s.eng.EvalInput(input, s.rng)
	if err != nil {
		return nil, err
	}
	e.served.Add(1)
	return out, nil
}

// frozenPool borrows up to max slots and wraps them as an exec.Pool for a
// stream request. The caller must call the returned release exactly once.
func (e *udfEntry) frozenPool(ctx context.Context, max int) (*exec.Pool, func(), error) {
	first, err := e.borrowFrozen(ctx)
	if err != nil {
		return nil, nil, err
	}
	slots := append([]*cloneSlot{first}, e.borrowMore(ctx, max-1)...)
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

// snapshot serializes the current model state stamped with the model
// sequence it was taken at.
func (e *udfEntry) snapshot(ctx context.Context, w io.Writer) (points int, seq int64, err error) {
	err = e.withWriter(ctx, func(ev *core.Evaluator) error {
		points = ev.Points()
		seq = e.modelSeq.Load()
		s, err := ev.Snapshot()
		if err != nil {
			return err
		}
		s.ModelSeq = seq
		return core.WriteSnapshot(w, s)
	})
	return points, seq, err
}

// UDFStats is the per-UDF /v1/stats record, shared with the wire surface.
type UDFStats = wire.UDFStats

// stats gathers the entry's counters (core counters via the writer loop).
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
	r.version.Add(1)
	r.watchMu.Lock()
	close(r.watch)
	r.watch = make(chan struct{})
	r.watchMu.Unlock()
}

// Version returns the current replication version.
func (r *Registry) Version() int64 { return r.version.Load() }

// WaitReplication blocks until the replication version exceeds since or
// ctx fires, returning the version seen. since < 0 returns immediately.
func (r *Registry) WaitReplication(ctx context.Context, since int64) int64 {
	for {
		if v := r.version.Load(); v > since || since < 0 {
			return v
		}
		r.watchMu.Lock()
		ch := r.watch
		r.watchMu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return r.version.Load()
		}
	}
}

// newEntry builds (but does not install) an entry for the spec.
func (r *Registry) newEntry(spec RegisterSpec, snap *core.Snapshot, replica bool) (*udfEntry, int64, error) {
	spec, err := normalizeSpec(spec)
	if err != nil {
		return nil, 0, err
	}
	def, err := lookupCatalog(spec.UDF)
	if err != nil {
		return nil, 0, err
	}
	cfg := core.Config{Eps: spec.Eps, Delta: spec.Delta, Kernel: def.kernel()}
	if spec.Sparse != nil {
		if err := spec.Sparse.Apply(&cfg); err != nil {
			return nil, 0, err
		}
	}
	var ev *core.Evaluator
	var seq int64
	if snap != nil {
		ev, err = core.Restore(def.mkUDF(), cfg, snap)
		seq = snap.ModelSeq
	} else {
		ev, err = core.NewEvaluator(def.mkUDF(), cfg)
	}
	if err != nil {
		return nil, 0, err
	}
	ncfg := ev.Config() // normalized: defaults applied
	e := &udfEntry{
		spec:      spec,
		def:       def,
		cfg:       ncfg,
		mcSamples: mc.SampleSize(ncfg.Eps, ncfg.Delta, mc.MetricDiscrepancy),
		reqs:      make(chan writerReq),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		bump:      r.bumpVersion,
		slots:     make(chan *cloneSlot, r.workers),
	}
	e.replica.Store(replica)
	for i := 0; i < r.workers; i++ {
		e.slots <- &cloneSlot{seq: -1}
	}
	e.ev = ev
	return e, seq, nil
}

// install adds a constructed entry under lock and starts its writer.
func (r *Registry) install(e *udfEntry, seq int64) (*udfEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errDraining
	}
	if _, dup := r.entries[e.spec.Name]; dup {
		return nil, fmt.Errorf("server: UDF %q %w", e.spec.Name, errAlreadyRegistered)
	}
	e.startWriter(e.ev, seq)
	r.entries[e.spec.Name] = e
	return e, nil
}

// Register creates a UDF instance. With a non-nil snapshot, the evaluator
// is restored from it (boot-time restore) and the model sequence resumes
// from the snapshot's ModelSeq.
func (r *Registry) Register(spec RegisterSpec, snap *core.Snapshot) (*udfEntry, error) {
	e, seq, err := r.newEntry(spec, snap, false)
	if err != nil {
		return nil, err
	}
	e, err = r.install(e, seq)
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
		// Rebuild an evaluator from the snapshot and swap it in through
		// the writer loop so in-flight reads finish on the old model.
		def, err := lookupCatalog(spec.UDF)
		if err != nil {
			return err
		}
		cfg := core.Config{Eps: spec.Eps, Delta: spec.Delta, Kernel: def.kernel()}
		if spec.Sparse != nil {
			if err := spec.Sparse.Apply(&cfg); err != nil {
				return err
			}
		}
		ev, err := core.Restore(def.mkUDF(), cfg, snap)
		if err != nil {
			return err
		}
		if err := existing.swapModel(context.Background(), ev, snap.ModelSeq); err != nil {
			return err
		}
		r.bumpVersion()
		return nil
	}
	e, seq, err := r.newEntry(spec, snap, true)
	if err != nil {
		return err
	}
	if _, err := r.install(e, seq); err != nil {
		return err
	}
	r.bumpVersion()
	return nil
}

// Promote flips a replica entry to owner (writer). Used by the fleet
// handoff path once this shard's replica has caught up to the departing
// owner's model sequence: the model bytes are already identical, so
// promotion only changes who accepts learning traffic. The flip runs on
// the writer loop, linearizing it against in-flight learn closures, and
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
// model sequence ≥ its own. Running on the writer loop guarantees no
// learning tuple is accepted after the flip (learnEval re-checks inside
// its closure), so the final owned sequence the new owner caught up to is
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

// Close stops every writer loop and marks the registry draining. In-flight
// writer closures finish; queued and future ones fail with errDraining.
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
