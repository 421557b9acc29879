package gp

import (
	"fmt"
	"math"

	"olgapro/internal/mat"
)

// TrainConfig controls maximum-likelihood hyperparameter learning (§3.4).
// The zero value selects sensible defaults via normalize.
type TrainConfig struct {
	// MaxIter bounds the number of gradient-ascent iterations (default 50).
	MaxIter int
}

const (
	// trainGradTol stops training when ‖∇L‖ falls below it.
	trainGradTol = 1e-4
	// trainInitStep is the initial step size in log-parameter space.
	trainInitStep = 0.1
	// trainParamBound clamps |log θ_j| to keep hyperparameters in a sane
	// range: θ within [e⁻¹⁰, e¹⁰].
	trainParamBound = 10
)

func (c TrainConfig) normalize() TrainConfig {
	if c.MaxIter <= 0 {
		c.MaxIter = 50
	}
	return c
}

// TrainResult reports the outcome of a Train call.
type TrainResult struct {
	Iters         int     // gradient steps taken
	InitialLogLik float64 // L(θ) before training
	FinalLogLik   float64 // L(θ) after training
	GradNorm      float64 // ‖∇L‖ at the final parameters
}

// Train learns the kernel hyperparameters by maximizing the log marginal
// likelihood with gradient ascent and a backtracking step size: if a step
// decreases L the step is rejected and halved, otherwise it is accepted and
// modestly grown. The GP is left refit at the final parameters.
func (g *GP) Train(cfg TrainConfig) (TrainResult, error) {
	cfg = cfg.normalize()
	res := TrainResult{}
	if len(g.xs) < 2 {
		// Nothing to learn from fewer than two points.
		res.InitialLogLik = g.LogLikelihood()
		res.FinalLogLik = res.InitialLogLik
		return res, nil
	}
	cur := g.LogLikelihood()
	res.InitialLogLik = cur
	params := g.kern.Params(nil)
	step := trainInitStep
	var grad []float64
	for iter := 0; iter < cfg.MaxIter; iter++ {
		grad = g.Grad()
		gn := mat.Norm2(grad)
		res.GradNorm = gn
		if gn < trainGradTol {
			break
		}
		// Normalized ascent direction, scaled by step.
		accepted := false
		for attempt := 0; attempt < 12; attempt++ {
			trial := make([]float64, len(params))
			for j := range trial {
				trial[j] = clamp(params[j]+step*grad[j]/gn, trainParamBound)
			}
			g.kern.SetParams(trial)
			if err := g.Fit(); err != nil {
				// Numerically infeasible parameters: shrink and retry.
				step /= 2
				continue
			}
			if l := g.LogLikelihood(); l > cur {
				cur = l
				params = trial
				step *= 1.2
				accepted = true
				break
			}
			step /= 2
		}
		if !accepted {
			// Restore the best parameters and stop.
			g.kern.SetParams(params)
			if err := g.Fit(); err != nil {
				return res, fmt.Errorf("gp: train restore: %w", err)
			}
			break
		}
		res.Iters++
	}
	// Ensure the model is fit at the final parameters.
	g.kern.SetParams(params)
	if err := g.Fit(); err != nil {
		return res, fmt.Errorf("gp: train final fit: %w", err)
	}
	res.FinalLogLik = g.LogLikelihood()
	return res, nil
}

func clamp(v, bound float64) float64 {
	if v > bound {
		return bound
	}
	if v < -bound {
		return -bound
	}
	return v
}

// NewtonStep returns ‖θ′ − θ‖ for one Newton step on the log marginal
// likelihood using the diagonal Hessian (§5.3):
//
//	θ′_j = θ_j − L′(θ_j)/L″(θ_j)
//
// This is the δθ that OLGAPRO's retraining heuristic compares against the
// threshold Δθ: a large first step means the optimizer would move far, so
// retraining is worthwhile. Where the Hessian is not negative (locally
// non-concave), the gradient magnitude is used as a conservative proxy.
func (g *GP) NewtonStep() float64 {
	if len(g.xs) < 2 {
		return 0
	}
	grad, hess := g.GradHess()
	var sum float64
	for j := range grad {
		var dj float64
		if hess[j] < -1e-12 {
			dj = -grad[j] / hess[j]
		} else {
			dj = grad[j]
		}
		sum += dj * dj
	}
	return math.Sqrt(sum)
}
