package main

// The layer ladder: after a traced run, captured requests are replayed
// through each layer's exported API in this process — wire decoding,
// sampling, frozen GP evaluation, the exec fan-out, partial-state merging,
// wire encoding — on a model rebuilt from the shard's own snapshot. Every
// replay must reproduce the served bytes; a layer whose replay does not is
// printed as invalid instead of as a number. The replayed layer times and
// the traced span times then split each request's latency, with whatever
// they do not cover printed as unattributed.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"olgapro/client"
	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/exec"
	"olgapro/internal/query"
	"olgapro/internal/server/wire"
	"olgapro/internal/udf"
)

// ladderSize is how many captured requests each ladder replays.
const ladderSize = 256

// replica is a served model rebuilt from its shard's snapshot through the
// public path a fleet replica takes: client.FetchSnapshot, then
// core.ReadSnapshot and core.Restore. Each worker's evaluator is restored
// straight into the settings core.CloneFrozen applies, instead of cloning a
// restored evaluator: a clone rebuilds its kernel from the log-space
// hyperparameters, and doing that a second time can move them by one ulp,
// so a clone of a restored model may differ in the last bits from the
// owner's clones (see README.md). Restored this way, each evaluator holds
// exactly the kernel and factorization the owner's clones hold.
type replica struct {
	eps     float64
	clones  []*core.Evaluator
	cloneMs float64 // median CloneFrozen time on the restored model
	seq     int64
}

func restoreReplica(ctx context.Context, cl *client.Client, name string, f udf.Func, workers int) (*replica, error) {
	fs, err := cl.FetchSnapshot(ctx, name, -1)
	if err != nil {
		return nil, fmt.Errorf("fetch snapshot %s: %w", name, err)
	}
	snap, err := core.ReadSnapshot(bytes.NewReader(fs.Data))
	if err != nil {
		return nil, err
	}
	frozen := core.Config{
		Eps: fs.Spec.Eps, Delta: fs.Spec.Delta,
		MaxAddPerInput: -1, Retrain: core.RetrainNever, FilterTrustModel: true, Parallelism: 1,
	}
	r := &replica{seq: fs.ModelSeq}
	for i := 0; i < workers; i++ {
		ev, err := core.Restore(f, frozen, snap)
		if err != nil {
			return nil, err
		}
		r.clones = append(r.clones, ev)
	}
	r.eps = r.clones[0].Config().Eps
	var times []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := r.clones[0].CloneFrozen(); err != nil {
			return nil, err
		}
		times = append(times, msSince(start, time.Now()))
	}
	r.cloneMs = median(times)
	return r, nil
}

// pool wraps the replica's clones as the server's frozen fan-out does.
func (r *replica) pool() (*exec.Pool, error) {
	engines := make([]query.Engine, len(r.clones))
	for i, c := range r.clones {
		engines[i] = query.NewEvaluatorEngine(c)
	}
	return exec.NewPool(engines...)
}

// tupleReplay is one tuple evaluated in two timed steps, exactly as a
// frozen clone's Eval does it: draw the sample budget from the input, then
// run Algorithm 5 on the samples with the same generator.
type tupleReplay struct {
	out      *core.Output
	sampleUs float64
	evalUs   float64
}

func (r *replica) evalTuple(vec dist.Vector, seed int64) (tupleReplay, error) {
	ev := r.clones[0]
	rng := rand.New(rand.NewSource(seed))
	m, d := ev.SampleBudget(), vec.Dim()
	start := time.Now()
	data := make([]float64, m*d)
	samples := make([][]float64, m)
	for i := range samples {
		samples[i] = vec.SampleVec(rng, data[i*d:(i+1)*d:(i+1)*d])
	}
	mid := time.Now()
	out, err := ev.EvalSamples(samples, rng)
	end := time.Now()
	if err != nil {
		return tupleReplay{}, err
	}
	return tupleReplay{out: out, sampleUs: msSince(start, mid) * 1e3, evalUs: msSince(mid, end) * 1e3}, nil
}

// poolRate drains the inputs through a pool of the replica's clones and
// returns tuples per second: the in-process ceiling for serving them.
func (r *replica) poolRate(inputs []client.InputSpec, seed int64) (float64, error) {
	tuples := make([]*query.Tuple, len(inputs))
	for i, in := range inputs {
		t, err := in.Tuple(int64(i))
		if err != nil {
			return 0, err
		}
		tuples[i] = t
	}
	p, err := r.pool()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	pe := p.Apply(query.NewScan(tuples), wire.AttrNames(len(inputs[0])), "y", exec.Options{Seed: seed})
	out, err := query.Drain(pe)
	pe.Close()
	if err != nil {
		return 0, err
	}
	return float64(len(out)) / time.Since(start).Seconds(), nil
}

// evalReplay is the ladder of single-tuple eval requests: per request, the
// replayed decode, sampling, evaluation and encode times in milliseconds.
type evalReplay struct {
	decode, sample, eval, encode []float64
	mismatch                     string // first served answer the replay did not reproduce
}

// replayEvals replays captured POST /v1/udfs/{name}/eval bodies against
// the replica and compares each re-encoded answer with the served bytes.
func replayEvals(rep *replica, reqs, served [][]byte) (evalReplay, error) {
	var er evalReplay
	for i, body := range reqs {
		var req wire.EvalRequest
		var vec dist.Vector
		dec, err := timeMs(func() error {
			if err := decodeStrict(body, &req); err != nil {
				return err
			}
			var err error
			vec, err = req.Input.Vector()
			return err
		})
		if err != nil {
			return er, fmt.Errorf("replay decode %d: %w", i, err)
		}
		tr, err := rep.evalTuple(vec, exec.TupleSeed(req.Seed, 0))
		if err != nil {
			return er, fmt.Errorf("replay eval %d: %w", i, err)
		}
		var b []byte
		enc, err := timeMs(func() error {
			var err error
			b, err = encodeJSON(resultOf(0, tr.out, rep.eps))
			return err
		})
		if err != nil {
			return er, err
		}
		if !bytes.Equal(b, served[i]) && er.mismatch == "" {
			er.mismatch = fmt.Sprintf("request %d: replayed %q, served %q", i, bytes.TrimSpace(b), bytes.TrimSpace(served[i]))
		}
		er.decode = append(er.decode, dec)
		er.sample = append(er.sample, tr.sampleUs/1e3)
		er.eval = append(er.eval, tr.evalUs/1e3)
		er.encode = append(er.encode, enc)
	}
	return er, nil
}

// ladder builds the table of a single-tuple request path.
func (er evalReplay) ladder(rl requestLayers) (root, handler *layer) {
	decode := &layer{name: "wire.decode", ms: median(er.decode)}
	sample := &layer{name: "dist.sample", ms: median(er.sample)}
	eval := &layer{name: "core.eval", ms: median(er.eval)}
	encode := &layer{name: "wire.encode", ms: median(er.encode)}
	if er.mismatch != "" {
		eval.invalid, encode.invalid = er.mismatch, er.mismatch
	}
	handler = &layer{name: "server.handler", ms: rl.outerMs, kids: []*layer{decode, sample, eval, encode}}
	root = &layer{name: "client.rtt", ms: rl.rttMs, kids: []*layer{
		{name: "net.self", ms: rl.netMs},
		handler,
	}}
	return root, handler
}

// setEvalLayers records the replayed single-tuple layers.
func (rc *runCtx) setEvalLayers(er evalReplay, handler *layer) {
	rc.set("wire.decode_ms", median(er.decode))
	rc.set("wire.encode_ms", median(er.encode))
	rc.set("dist.sample_us", median(er.sample)*1e3)
	rc.set("core.eval_us", median(er.eval)*1e3)
	rc.set("server.unattributed_ms", handler.unattributed())
}

// timeMs runs f and returns its wall time in milliseconds.
func timeMs(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return msSince(start, time.Now()), err
}

// layer is one row of a ladder table. A row with children is split into
// them plus an unattributed remainder, so every table sums exactly.
type layer struct {
	name    string
	ms      float64
	kids    []*layer
	invalid string // why the replay behind this row did not reproduce the served bytes
}

// unattributed returns the part of l its children do not cover.
func (l *layer) unattributed() float64 {
	s := 0.0
	for _, k := range l.kids {
		s += k.ms
	}
	return l.ms - s
}

// printLadder writes the table and checks that its leaves sum to the root.
func printLadder(root *layer, note string) {
	logf("  layer ladder (%s)", note)
	var sum float64
	var walk func(l *layer, depth int)
	walk = func(l *layer, depth int) {
		pad := strings.Repeat("  ", depth)
		share := 100 * l.ms / root.ms
		if l.invalid != "" {
			logf("    %-34s %10s          INVALID: %s", pad+l.name, "-", l.invalid)
		} else {
			logf("    %-34s %10.4f ms %6.1f%%", pad+l.name, l.ms, share)
		}
		if len(l.kids) == 0 {
			sum += l.ms
			return
		}
		for _, k := range l.kids {
			walk(k, depth+1)
		}
		u := l.unattributed()
		logf("    %-34s %10.4f ms %6.1f%%", pad+"  "+l.name+" unattributed", u, 100*u/root.ms)
		sum += u
	}
	walk(root, 0)
	logf("    %-34s %10.4f ms (= %s)", "sum of self times + unattributed", sum, root.name)
}

// requestLayers holds the traced per-request span statistics every
// workload reports.
type requestLayers struct {
	n        int
	rttMs    float64 // p50 client span
	netMs    float64 // p50 of client span − outermost handler span
	outerMs  float64 // p50 outermost handler span
	fanout   float64 // mean shard handler spans per request
	shardMs  float64 // p50 over requests of the slowest shard call
	routerMs float64 // p50 of router handler − union of its shard calls
	hopMs    float64 // p50 of slowest shard call − its shard handler
	innerMs  float64 // p50 shard handler span under the slowest call
}

func spanLayers(spans []span) (requestLayers, error) {
	reqs := requests(spans)
	var rl requestLayers
	var rtt, net, outer, shard, router, hop, inner []float64
	var shards int
	for _, r := range reqs {
		if !r.hasTree {
			continue
		}
		rtt = append(rtt, r.rtt)
		net = append(net, r.rtt-r.outer)
		outer = append(outer, r.outer)
		shards += len(r.shards)
		if len(r.calls) == 0 {
			continue
		}
		slow := r.calls[0]
		for _, c := range r.calls {
			if c.ms() > slow.ms() {
				slow = c
			}
		}
		shard = append(shard, slow.ms())
		router = append(router, r.outer-unionMs(r.calls))
		for _, s := range r.shards {
			if s.Parent == slow.ID {
				hop = append(hop, slow.ms()-s.ms())
				inner = append(inner, s.ms())
			}
		}
	}
	if len(rtt) == 0 {
		return rl, fmt.Errorf("trace: no complete request trees among %d spans", len(spans))
	}
	rl.n = len(rtt)
	rl.rttMs, rl.netMs, rl.outerMs = median(rtt), median(net), median(outer)
	rl.fanout = float64(shards) / float64(len(rtt))
	if len(shard) > 0 {
		rl.shardMs, rl.routerMs = median(shard), median(router)
		rl.hopMs, rl.innerMs = median(hop), median(inner)
	}
	return rl, nil
}

// setCommonLayers records the per-layer metrics every workload derives the
// same way from its traced spans and the slices its latencies come from:
// the untraced half of the run and the traced half.
func (rc *runCtx) setCommonLayers(rl requestLayers, plain, traced []slice) {
	rc.set("client.rtt_ms", rl.rttMs)
	rc.set("net.self_ms", rl.netMs)
	rc.set("server.handler_ms", rl.outerMs)
	rc.set("fleet.fanout", rl.fanout)
	late := append(merged(plain).lateMs, merged(traced).lateMs...)
	rc.set("gen.late_ms", median(late))
	// The headline is req_p50_ms, at reference host speed in both halves.
	overhead := latencyQuantile(traced, .5)/latencyQuantile(plain, .5) - 1
	rc.set("trace.overhead_frac", overhead)
	logf("  traced %d requests; tracing moved req_p50_ms by %+.1f%%", rl.n, 100*overhead)
}

// servedStats summarizes the served results' core metadata.
type servedStats struct {
	samples, local, boundOverEps []float64
}

func (s *servedStats) add(r *wire.EvalResult) {
	s.samples = append(s.samples, float64(r.Samples))
	s.local = append(s.local, float64(r.LocalPoints))
	s.boundOverEps = append(s.boundOverEps, r.Bound/r.Eps)
}

func (rc *runCtx) setServed(s *servedStats) {
	rc.set("core.samples", mean(s.samples))
	rc.set("core.local_points", mean(s.local))
	rc.set("core.bound_over_eps", median(s.boundOverEps))
}
