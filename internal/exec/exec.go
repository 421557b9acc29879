// Package exec is the parallel, pipelined query-execution layer: it runs
// the UDF-application stage of a query.Iterator pipeline across a pool of
// workers, each owning its own engine, with bounded channels for
// backpressure, context cancellation that propagates through Next, and an
// ordered merge that emits results in input order.
//
// # Determinism
//
// Three properties combine to make the output independent of the worker
// count and of goroutine scheduling — ParallelEval at 8 workers is
// bit-identical to serial execution (a 1-worker pool):
//
//  1. Per-tuple RNG seeding: every item is evaluated with its worker's
//     rand.Rand reseeded by query.TupleSeed from (Options.Seed, item
//     ordinal), so Monte-Carlo sampling does not depend on which worker
//     runs the item or how many items it ran before.
//  2. Frozen engines: pool engines must not mutate shared or per-engine
//     model state during execution. Evaluators of a core.Frozen model (what
//     core.(*Evaluator).CloneFrozen returns, and what NewEvaluatorPool
//     shares across its workers) are such engines; MCEngine is stateless by
//     construction. Evaluation is then a pure function of (tuple, rng).
//  3. Ordered merge: results are re-sequenced to input order before they
//     leave Next, so downstream operators see the serial stream.
//
// This determinism is what makes the executor testable and CI-gateable:
// the race-detector suite asserts serial, 2-worker, and 8-worker runs agree
// bitwise on every output sample.
//
// # Error convention
//
// The package follows the query-layer convention: the first error in stream
// order wins, it is wrapped once with the failing tuple's ordinal, and it is
// sticky — after any error (or cancellation) Next returns the same error
// forever and the worker goroutines are torn down. Errors from the upstream
// input iterator propagate unmodified at the stream position where the
// input broke off.
package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"olgapro/internal/core"
	"olgapro/internal/mc"
	"olgapro/internal/query"
)

// TupleSeed derives the deterministic RNG seed for the tuple at stream
// ordinal seq from the pipeline's base seed. It is query.TupleSeed, the one
// seeding discipline shared with the serial planner, kept at this name for
// the end-to-end benchmark module (benchmark/) and the tests; the executor
// and the server call query.TupleSeed.
func TupleSeed(base, seq int64) int64 { return query.TupleSeed(base, seq) }

// Pool is a set of per-worker engines sharing one trained model. Build one
// with NewEvaluatorPool (frozen clones of a warmed-up OLGAPRO evaluator) or
// NewPool (caller-supplied engines, e.g. stateless MC engines); then fan a
// pipeline stage out with Apply, or any per-item work with Map. A Pool is
// reusable across sequential stages but the engines must not be shared by
// two concurrently running stages.
type Pool struct {
	engines []query.Engine
}

// NewPool builds a pool from one engine per worker. Engines must be safe to
// run concurrently with each other (they are never shared between workers)
// and must not mutate model state if deterministic output is required.
func NewPool(engines ...query.Engine) (*Pool, error) {
	if len(engines) == 0 {
		return nil, errors.New("exec: pool needs at least one engine")
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("exec: engine %d is nil", i)
		}
	}
	return &Pool{engines: engines}, nil
}

// NewEvaluatorPool builds one frozen model of a warmed-up evaluator (see
// core.CloneFrozen) and gives each of workers engines its own evaluator over
// it, so the expensive GP fitting is paid once, not per worker, and the
// workers share the model read-only. workers ≤ 0 uses GOMAXPROCS. The
// evaluator needs at least two training points — run a warm-up Eval (or
// restore a snapshot) first.
func NewEvaluatorPool(ev *core.Evaluator, workers int) (*Pool, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	v, err := ev.View()
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	m, err := v.Build()
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	engines := make([]query.Engine, workers)
	for i := range engines {
		engines[i] = query.NewEvaluatorEngine(m.Evaluator())
	}
	return &Pool{engines: engines}, nil
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.engines) }

// Options tunes one parallel stage.
type Options struct {
	// Ctx cancels the stage: workers stop promptly and Next returns the
	// context's error. Nil means Background.
	Ctx context.Context
	// Seed is the base of the per-item RNG seeds (see query.TupleSeed).
	// Two runs with the same seed and input produce bit-identical output at
	// any worker count.
	Seed int64
	// Ords, when non-empty, maps each item's local stream position to its
	// global ordinal in a larger relation: item j seeds from
	// TupleSeed(Seed, Ords[j]) instead of TupleSeed(Seed, j). A shard of a
	// scattered query uses this to evaluate its subset of the union relation
	// with exactly the per-tuple RNG streams the whole relation would get,
	// keeping the distributed answer bit-identical. Positions past the end
	// of Ords fall back to the local ordinal.
	Ords []int64
	// Predicate, when non-nil, makes Apply truncate surviving result
	// distributions to [A, B] with the realized mass as TEP, exactly as
	// query.ApplyUDF does.
	Predicate *mc.Predicate
	// KeepEnvelope makes Apply retain each result's confidence envelope
	// (see query.AttachResult) for downstream bounded operators.
	KeepEnvelope bool
}

// Source yields the items of a Map stage in stream order, then io.EOF.
// Every query.Iterator is a Source[*query.Tuple].
type Source[T any] interface {
	Next() (T, error)
}

// Func is the per-item work of a Map stage. It runs in a worker goroutine
// with the worker's engine and its generator reseeded for the item, and
// returns the item to emit, or the zero T to drop it. An engine's borrowed
// output (query.Borrowed) lives only until the worker's next item, so Func
// consumes it before it returns.
type Func[T comparable] func(eng query.Engine, item T, rng *rand.Rand) (T, error)

// Apply returns an order-preserving parallel equivalent of query.ApplyUDF:
// it evaluates the UDF over the named input attributes of every tuple of in
// across the pool's workers and appends the result distribution as the out
// attribute, dropping engine-filtered tuples. When chaining several Apply
// stages, give each its own Options.Seed (e.g. mix in the stage name): a
// shared base seed would hand tuple #k the same RNG stream in every stage,
// correlating their sampling errors.
func (p *Pool) Apply(in query.Iterator, inputs []string, out string, opt Options) *ParallelEval {
	return Map(p, in, out, func(eng query.Engine, t *query.Tuple, rng *rand.Rand) (*query.Tuple, error) {
		input, err := query.InputVectorFor(t, inputs)
		if err != nil {
			return nil, err
		}
		o, err := eng.EvalInput(input, rng)
		if err != nil {
			return nil, err
		}
		return query.AttachResult(t, o, out, opt.Predicate, opt.KeepEnvelope), nil
	}, opt)
}

// Map returns the order-preserving parallel map of f over the items of in
// across the pool's workers; name labels the stage in its errors.
// Goroutines start lazily on the first Next and are torn down on EOF,
// error, cancellation, or Close.
func Map[T comparable](p *Pool, in Source[T], name string, f Func[T], opt Options) *Mapper[T] {
	return &Mapper[T]{in: in, name: name, f: f, engines: p.engines, opt: opt}
}

// job is one item travelling to a worker.
type job[T any] struct {
	seq  int64
	item T
}

// result is one evaluated item travelling back to the merger.
type result[T any] struct {
	seq  int64
	item T // zero when Func dropped the item
	err  error
}

// ParallelEval is the parallel UDF-application operator Apply returns: a
// query.Iterator.
type ParallelEval = Mapper[*query.Tuple]

// Mapper is a parallel map stage: an iterator whose Next pulls from a
// worker pool through an ordered merge. It is a single-consumer iterator
// (like every Volcano operator here); only the internal workers are
// concurrent. At most 2×queue + workers items, with a queue of 2× the
// worker count, are in flight (queued, evaluating, or buffered in the
// ordered merge) at any moment: the feeder holds a token per unemitted
// item, so one slow item stalls the upstream pull instead of letting the
// reorder buffer grow with the stream.
type Mapper[T comparable] struct {
	in      Source[T]
	name    string
	f       Func[T]
	engines []query.Engine
	opt     Options

	// Dropped counts items Func dropped. Read it after Next returned
	// io.EOF.
	Dropped int

	started bool
	ctx     context.Context
	cancel  context.CancelFunc
	results chan result[T]
	// feedErr is the upstream source's terminal error. It is written by
	// the feeder goroutine strictly before it closes the jobs channel, and
	// read by the merger only after the results channel closed, so the
	// jobs-close → workers-exit → results-close chain orders the accesses.
	feedErr error
	// inflight holds one token per item between upstream pull and ordered
	// emission, bounding the reorder buffer at its capacity.
	inflight chan struct{}
	// workers is waited on during teardown — it counts the worker
	// goroutines and the feeder, so when Close or an error return hands
	// control back, no engine is still evaluating and the upstream
	// source is no longer being pulled.
	workers sync.WaitGroup
	pending map[int64]result[T]
	next    int64
	err     error
}

// run starts the feeder, the workers, and the results closer.
func (m *Mapper[T]) run() {
	parent := m.opt.Ctx
	if parent == nil {
		parent = context.Background()
	}
	m.ctx, m.cancel = context.WithCancel(parent)
	w := len(m.engines)
	q := 2 * w
	jobs := make(chan job[T], q)
	m.results = make(chan result[T], q)
	m.inflight = make(chan struct{}, 2*q+w)
	m.pending = make(map[int64]result[T], 2*q+w)

	// Feeder: the only goroutine touching the upstream source. The token
	// acquired per item is released by the merger at emission, so the
	// feeder stalls — instead of the reorder buffer growing — when one
	// slow item holds the ordered merge back.
	m.workers.Add(1)
	go func() {
		defer m.workers.Done()
		defer close(jobs)
		for seq := int64(0); ; seq++ {
			select {
			case m.inflight <- struct{}{}:
			case <-m.ctx.Done():
				return
			}
			item, err := m.in.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				m.feedErr = err
				return
			}
			select {
			case jobs <- job[T]{seq: seq, item: item}:
			case <-m.ctx.Done():
				return
			}
		}
	}()

	for i := 0; i < w; i++ {
		m.workers.Add(1)
		go func(eng query.Engine) {
			defer m.workers.Done()
			rng := query.NewTupleRand()
			for {
				select {
				case <-m.ctx.Done():
					return
				case j, ok := <-jobs:
					if !ok {
						return
					}
					r := m.eval(eng, rng, j)
					select {
					case m.results <- r:
					case <-m.ctx.Done():
						return
					}
				}
			}
		}(m.engines[i])
	}
	go func() {
		m.workers.Wait()
		close(m.results)
	}()
}

// eval runs f on one item after reseeding the worker's RNG with the item's
// own deterministic seed.
func (m *Mapper[T]) eval(eng query.Engine, rng *rand.Rand, j job[T]) result[T] {
	ord := j.seq
	if j.seq < int64(len(m.opt.Ords)) {
		ord = m.opt.Ords[j.seq]
	}
	rng.Seed(query.TupleSeed(m.opt.Seed, ord))
	item, err := m.f(eng, j.item, rng)
	return result[T]{seq: j.seq, item: item, err: err}
}

// Next returns the next surviving item in input order.
func (m *Mapper[T]) Next() (T, error) {
	var zero T
	if !m.started {
		m.started = true
		m.run()
	}
	if m.err != nil {
		return zero, m.err
	}
	for {
		if r, ok := m.pending[m.next]; ok {
			delete(m.pending, m.next)
			m.next++
			<-m.inflight // release this item's in-flight token
			if r.err != nil {
				return zero, m.fail(fmt.Errorf("exec: apply %q: tuple #%d: %w", m.name, r.seq, r.err))
			}
			if r.item == zero {
				m.Dropped++
				continue
			}
			return r.item, nil
		}
		select {
		case r, ok := <-m.results:
			if !ok {
				return zero, m.finish()
			}
			m.pending[r.seq] = r
		case <-m.ctx.Done():
			return zero, m.fail(m.ctx.Err())
		}
	}
}

// finish resolves the terminal state once every worker has exited: the
// upstream error at its stream position, a cancellation, or clean EOF.
func (m *Mapper[T]) finish() error {
	if m.feedErr != nil {
		return m.fail(m.feedErr)
	}
	if err := m.ctx.Err(); err != nil {
		return m.fail(err)
	}
	return m.fail(io.EOF)
}

// fail makes err sticky and tears the workers down, waiting until every
// worker has exited so the pool's engines are free for a subsequent stage.
func (m *Mapper[T]) fail(err error) error {
	m.err = err
	m.cancel()
	m.workers.Wait()
	return m.err
}

// Close cancels the stage and waits for the workers to exit, so the pool's
// engines may be reused immediately afterwards; an in-flight UDF call is
// allowed to finish first. Close is safe to call at any point (including
// before the first Next, or after EOF) and is idempotent. Subsequent Next
// calls return the terminal error.
func (m *Mapper[T]) Close() error {
	if !m.started {
		m.started = true
		m.err = context.Canceled
		return nil
	}
	if m.cancel != nil {
		m.cancel()
	}
	m.workers.Wait()
	if m.err == nil {
		m.err = context.Canceled
	}
	return nil
}
