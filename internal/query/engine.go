package query

import (
	"math/rand"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/mc"
	"olgapro/internal/udf"
)

// Engine evaluates a UDF on one uncertain input vector. Build one with
// NewEvaluatorEngine, NewMCEngine, or NewHybridEngine; every Output leaves
// the constructor-made engine with Output.Engine stamped, so routing
// decisions survive into query results regardless of which backend ran.
type Engine interface {
	EvalInput(input dist.Vector, rng *rand.Rand) (*core.Output, error)
}

// engine is the one concrete Engine implementation: a backend closure plus
// the stamp to apply. Stamping happens here — in exactly one place — rather
// than inside each backend; EngineUnknown means "trust the backend's own
// per-input stamp" (the hybrid router records which engine it chose).
type engine struct {
	eval func(input dist.Vector, rng *rand.Rand) (*core.Output, error)
	// borrow, when non-nil, is eval with a borrowed result (see Borrowed).
	borrow func(input dist.Vector, rng *rand.Rand) (*core.Output, error)
	stamp  core.Engine
}

// Borrowed evaluates input on e like EvalInput, except that an OLGAPRO
// evaluator engine hands back its borrowed result (core's EvalBorrowed):
// the output and its distribution live in the evaluator's scratch and are
// valid only until e's next evaluation. Other engines return their owned
// output. A caller that encodes each result before the next tuple uses it
// to skip the copy of the output supports.
func Borrowed(e Engine, input dist.Vector, rng *rand.Rand) (*core.Output, error) {
	if en, ok := e.(engine); ok && en.borrow != nil {
		return en.run(en.borrow, input, rng)
	}
	return e.EvalInput(input, rng)
}

// EvalInput runs the backend and stamps the output's engine tag.
func (e engine) EvalInput(input dist.Vector, rng *rand.Rand) (*core.Output, error) {
	return e.run(e.eval, input, rng)
}

// run calls one of the engine's backends and stamps the output.
func (e engine) run(eval func(dist.Vector, *rand.Rand) (*core.Output, error), input dist.Vector, rng *rand.Rand) (*core.Output, error) {
	out, err := eval(input, rng)
	if err != nil || out == nil {
		return out, err
	}
	if e.stamp != core.EngineUnknown {
		out.Engine = e.stamp
	}
	return out, nil
}

// NewEvaluatorEngine wraps an OLGAPRO GP evaluator (online-learning or a
// frozen clone) as a query Engine.
func NewEvaluatorEngine(ev *core.Evaluator) Engine {
	return engine{
		eval:   ev.Eval,
		borrow: ev.EvalBorrowed,
		stamp:  core.EngineGP,
	}
}

// NewMCEngine wraps direct Monte-Carlo evaluation (Algorithm 1) of f under
// cfg as a query Engine. The engine is stateless, so one value may be
// shared across pool workers.
func NewMCEngine(f udf.Func, cfg mc.Config) Engine {
	return engine{
		eval: func(input dist.Vector, rng *rand.Rand) (*core.Output, error) {
			res, err := mc.Evaluate(f, input, cfg, rng)
			if err != nil {
				return nil, err
			}
			return &core.Output{
				Dist:      res.Dist,
				Bound:     cfg.Eps,
				BoundMC:   cfg.Eps,
				Samples:   res.Samples,
				UDFCalls:  res.UDFCalls,
				Filtered:  res.Filtered,
				TEPLower:  res.TEP,
				TEPUpper:  res.TEP,
				MetBudget: true,
			}, nil
		},
		stamp: core.EngineMC,
	}
}

// NewHybridEngine wraps the hybrid GP/MC router as a query Engine. The
// stamp is left to the router, which records the engine it chose per input.
func NewHybridEngine(h *core.Hybrid) Engine {
	return engine{
		eval: func(input dist.Vector, rng *rand.Rand) (*core.Output, error) {
			out, _, err := h.Eval(input, rng)
			return out, err
		},
		stamp: core.EngineUnknown,
	}
}
