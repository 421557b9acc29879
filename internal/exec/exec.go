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
//  1. Per-tuple RNG seeding: every tuple is evaluated with its worker's
//     rand.Rand reseeded by TupleSeed from (Options.Seed, tuple ordinal),
//     so Monte-Carlo sampling does not depend on which worker runs the
//     tuple or how many tuples it ran before.
//  2. Frozen engines: pool engines must not mutate shared or per-engine
//     model state during execution. core.(*Evaluator).CloneFrozen produces
//     such engines (NewEvaluatorPool uses it); MCEngine is stateless by
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
// ordinal seq from the pipeline's base seed. It is query.TupleSeed — the
// one seeding discipline shared with the serial planner — re-exported at
// its historical name for executor call sites.
func TupleSeed(base, seq int64) int64 { return query.TupleSeed(base, seq) }

// Pool is a set of per-worker engines sharing one trained model. Build one
// with NewEvaluatorPool (frozen clones of a warmed-up OLGAPRO evaluator) or
// NewPool (caller-supplied engines, e.g. stateless MC engines); then fan a
// pipeline stage out with Apply. A Pool is reusable across sequential Apply
// stages but the engines must not be shared by two concurrently running
// stages.
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

// NewEvaluatorPool clones a warmed-up evaluator into workers frozen copies
// (see core.CloneFrozen), sharing its tuned hyperparameters and training
// set so the expensive GP fitting is paid once, not per worker. workers ≤ 0
// uses GOMAXPROCS. The evaluator needs at least two training points — run a
// warm-up Eval (or restore a snapshot) first.
func NewEvaluatorPool(ev *core.Evaluator, workers int) (*Pool, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	engines := make([]query.Engine, workers)
	for i := range engines {
		c, err := ev.CloneFrozen()
		if err != nil {
			return nil, fmt.Errorf("exec: worker %d: %w", i, err)
		}
		engines[i] = query.NewEvaluatorEngine(c)
	}
	return &Pool{engines: engines}, nil
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.engines) }

// Options tunes one parallel apply stage.
type Options struct {
	// Ctx cancels the stage: workers stop promptly and Next returns the
	// context's error. Nil means Background.
	Ctx context.Context
	// Seed is the base of the per-tuple RNG seeds (see TupleSeed). Two runs
	// with the same seed and input produce bit-identical output at any
	// worker count.
	Seed int64
	// Queue is the capacity of each bounded stage channel — the
	// backpressure knob. 0 uses 2× the worker count. At most
	// 2×Queue + workers tuples are in flight (queued, evaluating, or
	// buffered in the ordered merge) at any moment: the feeder holds a
	// token per unemitted tuple, so one slow tuple stalls the upstream
	// pull instead of letting the reorder buffer grow with the stream.
	Queue int
	// Ords, when non-empty, maps each tuple's local stream position to its
	// global ordinal in a larger relation: tuple j seeds from
	// TupleSeed(Seed, Ords[j]) instead of TupleSeed(Seed, j). A shard of a
	// scattered query uses this to evaluate its subset of the union relation
	// with exactly the per-tuple RNG streams the whole relation would get,
	// keeping the distributed answer bit-identical. Positions past the end
	// of Ords fall back to the local ordinal.
	Ords []int64
	// Predicate, when non-nil, truncates surviving result distributions to
	// [A, B] with the realized mass as TEP, exactly as query.ApplyUDF does.
	Predicate *mc.Predicate
	// KeepEnvelope retains each result's confidence envelope (see
	// query.AttachResult) for downstream bounded operators.
	KeepEnvelope bool
}

// Apply returns an order-preserving parallel equivalent of query.ApplyUDF:
// it evaluates the UDF over the named input attributes of every tuple of in
// across the pool's workers and appends the result distribution as the out
// attribute, dropping engine-filtered tuples. Goroutines start lazily on
// the first Next and are torn down on EOF, error, cancellation, or Close.
// When chaining several Apply stages, give each its own Options.Seed
// (e.g. mix in the stage name): a shared base seed would hand tuple #k the
// same RNG stream in every stage, correlating their sampling errors.
func (p *Pool) Apply(in query.Iterator, inputs []string, out string, opt Options) *ParallelEval {
	return &ParallelEval{
		in:      in,
		inputs:  inputs,
		out:     out,
		engines: p.engines,
		opt:     opt,
	}
}

// job is one tuple travelling to a worker.
type job struct {
	seq   int64
	tuple *query.Tuple
}

// result is one evaluated tuple travelling back to the merger.
type result struct {
	seq   int64
	tuple *query.Tuple // nil when the engine filtered the tuple
	err   error
}

// ParallelEval is the parallel UDF-application operator: a query.Iterator
// whose Next pulls from a worker pool through an ordered merge. It is a
// single-consumer iterator (like every Volcano operator here); only the
// internal workers are concurrent.
type ParallelEval struct {
	in      query.Iterator
	inputs  []string
	out     string
	engines []query.Engine
	opt     Options

	// Dropped counts tuples removed by filtering. Read it after Next
	// returned io.EOF.
	Dropped int

	started bool
	ctx     context.Context
	cancel  context.CancelFunc
	results chan result
	// feedErr is the upstream iterator's terminal error. It is written by
	// the feeder goroutine strictly before it closes the jobs channel, and
	// read by the merger only after the results channel closed, so the
	// jobs-close → workers-exit → results-close chain orders the accesses.
	feedErr error
	// inflight holds one token per tuple between upstream pull and ordered
	// emission, bounding the reorder buffer at its capacity.
	inflight chan struct{}
	// workers is waited on during teardown — it counts the worker
	// goroutines and the feeder, so when Close or an error return hands
	// control back, no engine is still evaluating and the upstream
	// iterator is no longer being pulled.
	workers sync.WaitGroup
	pending map[int64]result
	next    int64
	err     error
}

// run starts the feeder, the workers, and the results closer.
func (p *ParallelEval) run() {
	parent := p.opt.Ctx
	if parent == nil {
		parent = context.Background()
	}
	p.ctx, p.cancel = context.WithCancel(parent)
	w := len(p.engines)
	q := p.opt.Queue
	if q <= 0 {
		q = 2 * w
	}
	jobs := make(chan job, q)
	p.results = make(chan result, q)
	p.inflight = make(chan struct{}, 2*q+w)
	p.pending = make(map[int64]result, 2*q+w)

	// Feeder: the only goroutine touching the upstream iterator. The
	// token acquired per tuple is released by the merger at emission, so
	// the feeder stalls — instead of the reorder buffer growing — when one
	// slow tuple holds the ordered merge back.
	p.workers.Add(1)
	go func() {
		defer p.workers.Done()
		defer close(jobs)
		for seq := int64(0); ; seq++ {
			select {
			case p.inflight <- struct{}{}:
			case <-p.ctx.Done():
				return
			}
			t, err := p.in.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				p.feedErr = err
				return
			}
			select {
			case jobs <- job{seq: seq, tuple: t}:
			case <-p.ctx.Done():
				return
			}
		}
	}()

	for i := 0; i < w; i++ {
		p.workers.Add(1)
		go func(eng query.Engine) {
			defer p.workers.Done()
			rng := query.NewTupleRand()
			for {
				select {
				case <-p.ctx.Done():
					return
				case j, ok := <-jobs:
					if !ok {
						return
					}
					r := evalOne(eng, rng, j, p.inputs, p.out, p.opt)
					select {
					case p.results <- r:
					case <-p.ctx.Done():
						return
					}
				}
			}
		}(p.engines[i])
	}
	go func() {
		p.workers.Wait()
		close(p.results)
	}()
}

// evalOne evaluates one tuple after reseeding the worker's RNG with the
// tuple's own deterministic seed.
func evalOne(eng query.Engine, rng *rand.Rand, j job, inputs []string, out string, opt Options) result {
	ord := j.seq
	if j.seq < int64(len(opt.Ords)) {
		ord = opt.Ords[j.seq]
	}
	rng.Seed(TupleSeed(opt.Seed, ord))
	input, err := query.InputVectorFor(j.tuple, inputs)
	if err != nil {
		return result{seq: j.seq, err: err}
	}
	o, err := eng.EvalInput(input, rng)
	if err != nil {
		return result{seq: j.seq, err: err}
	}
	return result{seq: j.seq, tuple: query.AttachResult(j.tuple, o, out, opt.Predicate, opt.KeepEnvelope)}
}

// Next returns the next surviving tuple in input order.
func (p *ParallelEval) Next() (*query.Tuple, error) {
	if !p.started {
		p.started = true
		p.run()
	}
	if p.err != nil {
		return nil, p.err
	}
	for {
		if r, ok := p.pending[p.next]; ok {
			delete(p.pending, p.next)
			p.next++
			<-p.inflight // release this tuple's in-flight token
			if r.err != nil {
				return nil, p.fail(fmt.Errorf("exec: apply %q: tuple #%d: %w", p.out, r.seq, r.err))
			}
			if r.tuple == nil {
				p.Dropped++
				continue
			}
			return r.tuple, nil
		}
		select {
		case r, ok := <-p.results:
			if !ok {
				return nil, p.finish()
			}
			p.pending[r.seq] = r
		case <-p.ctx.Done():
			return nil, p.fail(p.ctx.Err())
		}
	}
}

// finish resolves the terminal state once every worker has exited: the
// upstream error at its stream position, a cancellation, or clean EOF.
func (p *ParallelEval) finish() error {
	if p.feedErr != nil {
		return p.fail(p.feedErr)
	}
	if err := p.ctx.Err(); err != nil {
		return p.fail(err)
	}
	return p.fail(io.EOF)
}

// fail makes err sticky and tears the workers down, waiting until every
// worker has exited so the pool's engines are free for a subsequent stage.
func (p *ParallelEval) fail(err error) error {
	p.err = err
	p.cancel()
	p.workers.Wait()
	return p.err
}

// Close cancels the stage and waits for the workers to exit, so the pool's
// engines may be reused immediately afterwards; an in-flight UDF call is
// allowed to finish first. Close is safe to call at any point (including
// before the first Next, or after EOF) and is idempotent. Subsequent Next
// calls return the terminal error.
func (p *ParallelEval) Close() error {
	if !p.started {
		p.started = true
		p.err = context.Canceled
		return nil
	}
	if p.cancel != nil {
		p.cancel()
	}
	p.workers.Wait()
	if p.err == nil {
		p.err = context.Canceled
	}
	return nil
}
