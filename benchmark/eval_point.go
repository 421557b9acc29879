package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"olgapro/client"
	"olgapro/internal/server/wire"
	"olgapro/internal/udf"
)

const (
	evalPointInputs = 4096 // distinct inputs, cycled
	replayChecks    = 64   // answers re-requested at the end of a run
	evalPointDelta  = 0.1
)

// smoothUDF is poly/smooth2d from the server catalog, needed to restore
// its snapshots in this process.
func smoothUDF() udf.Func {
	return udf.FuncOf{D: 2, F: func(x []float64) float64 { return x[0]*x[0] + 0.5*x[1] + 0.3*x[0]*x[1] }}
}

type evalPointEnv struct {
	sh *shard
	cl *client.Client
}

func (e *evalPointEnv) close() { e.sh.close() }

// answers checks served eval answers and keeps what the ladder replays.
type answers struct {
	*firstAnswers
	budget budget

	mu     sync.Mutex
	served servedStats // of the first answers
}

// check parses and checks the answer to input k: a well-formed result,
// byte-identical to the first answer to the same input.
func (a *answers) check(k int, body []byte) error {
	var r wire.EvalResult
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("input %d: %w", k, err)
	}
	if err := checkResult(&r, &a.budget); err != nil {
		return fmt.Errorf("input %d: %w", k, err)
	}
	first, err := a.record(k, body)
	if first {
		a.mu.Lock()
		a.served.add(&r)
		a.mu.Unlock()
	}
	return err
}

func runEvalPoint(rc *runCtx) error {
	const name = "smooth"
	path := "/v1/udfs/" + name + "/eval"
	rng := rand.New(rand.NewSource(rc.seed))
	learn := false
	inputs := make([]client.InputSpec, evalPointInputs)
	bodies := make([][]byte, evalPointInputs)
	for i := range bodies {
		inputs[i] = smoothInput(rng)
		b, err := json.Marshal(client.EvalRequest{Input: inputs[i], Seed: int64(i + 1), Learn: &learn})
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	warmup := smoothWarmup()
	ans := &answers{firstAnswers: newFirstAnswers(evalPointInputs, ladderSize)}

	env, err := repeatSetup(rc, 5, func() (*evalPointEnv, error) {
		sh, err := startShard(2, rc.tr)
		if err != nil {
			return nil, err
		}
		env := &evalPointEnv{sh: sh, cl: newClient(sh.url, rc.tr)}
		if _, err := env.cl.Register(rc.ctx, client.RegisterRequest{
			UDF: "poly/smooth2d", Name: name, Eps: 0.4, Delta: evalPointDelta, Warmup: warmup, WarmupSeed: 3,
		}); err != nil {
			env.close()
			return nil, err
		}
		b, err := post(rc.ctx, env.cl, path, bodies[0], "application/json")
		if err == nil {
			err = ans.check(0, b)
		}
		if err != nil {
			env.close()
			return nil, err
		}
		return env, nil
	})
	if err != nil {
		return err
	}
	defer env.close()

	// Requests cycle through the inputs across slices.
	var next atomic.Int64
	do := func(ctx context.Context, _ int) (int, error) {
		k := int(next.Add(1)-1) % evalPointInputs
		var body []byte
		err := rc.tr.call(ctx, func(ctx context.Context) error {
			var err error
			body, err = post(ctx, env.cl, path, bodies[k], "application/json")
			return err
		})
		if err == nil {
			err = ans.check(k, body)
		}
		if err != nil {
			rc.logFailure(err.Error())
			return 0, err
		}
		return 1, nil
	}
	// Alternating slices: latency at a fixed rate from the open loop, and
	// capacity from two closed-loop senders.
	drive := func(d time.Duration) []slice {
		return rc.sliced(d, func(i int) traffic {
			if i%2 == 0 {
				return openLoop(rc.ctx, rc.size.evalRate, 2, rc.size.slice, do)
			}
			return closedLoop(rc.ctx, 2, rc.size.slice, do)
		})
	}

	if !rc.trace {
		rc.measure(func() {
			ss := drive(rc.dur)
			rc.setTraffic(ss, every(ss, 0), every(ss, 1))
		})
		st, err := udfStats(rc.ctx, env.cl, name)
		if err != nil {
			return err
		}
		rc.set("udf_calls_per_tuple", float64(st.UDFCalls)/float64(len(warmup)))
	} else {
		before, err := udfInfo(rc.ctx, env.cl, name)
		if err != nil {
			return err
		}
		plain := drive(rc.dur / 2)
		rc.tr.on.Store(true)
		traced := drive(rc.dur / 2)
		rc.tr.on.Store(false)
		after, err := udfInfo(rc.ctx, env.cl, name)
		if err != nil {
			return err
		}
		rl, err := spanLayers(rc.tr.snapshot())
		if err != nil {
			return err
		}
		rc.setCommonLayers(rl, every(plain, 0), every(traced, 0))
		rc.set("server.seq_bumps", float64(after.ModelSeq-before.ModelSeq))
		rc.set("core.points", float64(after.TrainingPoints))
		if err := rc.evalPointLadder(env.cl, name, bodies, inputs, ans, rl, merged(every(plain, 1))); err != nil {
			return err
		}
	}

	// The first replayChecks inputs once more: the answers must not drift.
	for k := 0; k < replayChecks; k++ {
		rc.attempt(1)
		b, err := post(rc.ctx, env.cl, path, bodies[k], "application/json")
		if err == nil {
			err = ans.check(k, b)
		}
		if err != nil {
			rc.failf("replay %d: %v", k, err)
		}
	}
	if err := ans.budget.check(evalPointDelta); err != nil {
		rc.failf("frozen answers: %v", err)
	}
	return nil
}

// evalPointLadder replays the captured requests layer by layer.
func (rc *runCtx) evalPointLadder(cl *client.Client, name string, bodies [][]byte, inputs []client.InputSpec,
	ans *answers, rl requestLayers, plain traffic) error {
	rep, err := restoreReplica(rc.ctx, cl, name, smoothUDF(), 2)
	if err != nil {
		return err
	}
	var reqs, served [][]byte
	for k, b := range ans.bodies {
		if b != nil {
			reqs, served = append(reqs, bodies[k]), append(served, b)
		}
	}
	er, err := replayEvals(rep, reqs, served)
	if err != nil {
		return err
	}
	if er.mismatch != "" {
		rc.noteInvalid(er.mismatch)
	}
	rate, err := rep.poolRate(inputs[:1024], rc.seed)
	if err != nil {
		return err
	}
	root, handler := er.ladder(rl)
	printLadder(root, fmt.Sprintf("p50 per request over %d traced requests, at most 2 in flight; %d requests replayed", rl.n, len(reqs)))
	rc.setEvalLayers(er, handler)
	rc.set("core.clone_ms", rep.cloneMs)
	rc.set("exec.pool_tuples_per_s", rate)
	rc.set("exec.serving_share", 1-plain.tuplesPerS()/rate)
	rc.set("wire.req_bytes", meanLen(reqs))
	rc.set("wire.resp_bytes", meanLen(served))
	rc.setServed(&ans.served)
	return nil
}

func meanLen(bs [][]byte) float64 {
	n := 0
	for _, b := range bs {
		n += len(b)
	}
	return float64(n) / float64(len(bs))
}
