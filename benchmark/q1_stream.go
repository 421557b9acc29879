package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"time"

	"olgapro/client"
	"olgapro/internal/astro"
	"olgapro/internal/exec"
	"olgapro/internal/query"
	"olgapro/internal/sdss"
	"olgapro/internal/server/wire"
)

const (
	q1Eps       = 0.1 // the paper's defaults
	q1Delta     = 0.05
	q1LearnSeed = 1 // the learn stream's seed: every run learns the same model
)

type q1Env struct {
	sh *shard
	cl *client.Client
}

func (e *q1Env) close() { e.sh.close() }

// galaxyInput is Q1's uncertain input: the galaxy's redshift.
func galaxyInput(g sdss.Galaxy) client.InputSpec {
	return client.InputSpec{{Type: "normal", Mu: g.Redshift, Sigma: g.RedshiftErr}}
}

// q1Inputs draws the catalogs. The learn set is one fixed catalog, learned
// with a fixed seed, so every seed serves the same model and the seed
// varies the traffic: the held-out galaxies, drawn from the seed's catalog,
// whose redshift stays two standard deviations inside the learned range.
// Frozen clones cannot add training points, so frozen reads belong where
// the model has learned.
func q1Inputs(seed int64, sz size) (learn, held []client.InputSpec, err error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, g := range sdss.Generate(sdss.GenerateConfig{N: sz.q1Learn, Seed: 0}).Galaxies {
		learn = append(learn, galaxyInput(g))
		lo, hi = math.Min(lo, g.Redshift), math.Max(hi, g.Redshift)
	}
	for _, g := range sdss.Generate(sdss.GenerateConfig{N: 4 * sz.q1HeldOut, Seed: seed}).Galaxies {
		if len(held) < sz.q1HeldOut && g.Redshift-2*g.RedshiftErr >= lo && g.Redshift+2*g.RedshiftErr <= hi {
			held = append(held, galaxyInput(g))
		}
	}
	if len(held) < sz.q1HeldOut {
		return nil, nil, fmt.Errorf("catalog of seed %d has %d galaxies inside the learned range, want %d", seed, len(held), sz.q1HeldOut)
	}
	return learn, held, nil
}

func runQ1Stream(rc *runCtx) error {
	const name = "galage"
	sz := rc.size
	learnIn, held, err := q1Inputs(rc.seed, sz)
	if err != nil {
		return err
	}
	learnBody, err := client.StreamBody(learnIn)
	if err != nil {
		return err
	}
	// One stream body per chunk of the held-out set, each with its own seed.
	chunks := sz.q1HeldOut / sz.q1Stream
	bodies := make([][]byte, chunks)
	queries := make([]url.Values, chunks)
	for c := range bodies {
		b, err := client.StreamBody(held[c*sz.q1Stream : (c+1)*sz.q1Stream])
		if err != nil {
			return err
		}
		bodies[c] = b
		queries[c] = url.Values{"learn": {"false"}, "seed": {strconv.Itoa(c + 1)}}
	}
	answers := newFirstAnswers(chunks, chunks)
	var served servedStats
	var frozen budget
	check := func(c int, body []byte) error {
		res, err := checkStream(body, sz.q1Stream, &frozen)
		if err != nil {
			return fmt.Errorf("stream %d: %w", c, err)
		}
		first, err := answers.record(c, body)
		if first {
			for i := range res {
				served.add(&res[i].EvalResult)
			}
		}
		return err
	}

	env, err := repeatSetup(rc, 3, func() (*q1Env, error) {
		sh, err := startShard(2, rc.tr)
		if err != nil {
			return nil, err
		}
		env := &q1Env{sh: sh, cl: newClient(sh.url, rc.tr)}
		err = func() error {
			if _, err := env.cl.Register(rc.ctx, client.RegisterRequest{UDF: "astro/galage", Name: name, Eps: q1Eps, Delta: q1Delta}); err != nil {
				return err
			}
			var learned budget
			if err := learnStream(rc.ctx, env.cl, name, learnBody, q1LearnSeed, sz.q1Learn, &learned); err != nil {
				return err
			}
			if err := learned.check(q1Delta); err != nil {
				return fmt.Errorf("learned answers: %w", err)
			}
			b, err := openStream(rc.ctx, env.cl, name, queries[0], bodies[0])
			if err != nil {
				return err
			}
			return check(0, b)
		}()
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

	// Requests cycle through the streams across slices.
	next := 0
	do := func(ctx context.Context, _ int) (int, error) {
		c := next % chunks
		next++
		var body []byte
		err := rc.tr.call(ctx, func(ctx context.Context) error {
			var err error
			body, err = openStream(ctx, env.cl, name, queries[c], bodies[c])
			return err
		})
		if err == nil {
			err = check(c, body)
		}
		if err != nil {
			rc.logFailure(err.Error())
			return 0, err
		}
		return sz.q1Stream, nil
	}
	drive := func(d time.Duration) []slice {
		return rc.sliced(d, func(int) traffic { return closedLoop(rc.ctx, 1, rc.size.slice, do) })
	}

	if !rc.trace {
		rc.measure(func() {
			ss := drive(rc.dur)
			rc.setTraffic(ss, ss, ss)
		})
		st, err := udfStats(rc.ctx, env.cl, name)
		if err != nil {
			return err
		}
		rc.set("udf_calls_per_tuple", float64(st.UDFCalls)/float64(sz.q1Learn))
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
		rc.setCommonLayers(rl, plain, traced)
		rc.set("server.seq_bumps", float64(after.ModelSeq-before.ModelSeq))
		rc.set("core.points", float64(after.TrainingPoints))
		rc.setServed(&served)
		if err := rc.streamLadder(env.cl, name, bodies, queries, answers.bodies, held, rl, merged(plain)); err != nil {
			return err
		}
	}

	// Two streams once more: the answers must not drift.
	for c := 0; c < 2; c++ {
		rc.attempt(1)
		b, err := openStream(rc.ctx, env.cl, name, queries[c], bodies[c])
		if err == nil {
			err = check(c, b)
		}
		if err != nil {
			rc.failf("replay stream %d: %v", c, err)
		}
	}
	if err := frozen.check(q1Delta); err != nil {
		rc.failf("frozen answers: %v", err)
	}
	return nil
}

// streamReplay is the ladder of frozen NDJSON streams: per stream, the
// replayed line decoding, the exec fan-out over two clones, and the line
// encoding; per tuple, serial sampling and evaluation.
type streamReplay struct {
	decode, pool, encode []float64 // ms per stream
	sampleUs, evalUs     []float64 // per tuple
	mismatch             string
}

func (rc *runCtx) streamLadder(cl *client.Client, name string, bodies [][]byte, queries []url.Values,
	captured [][]byte, held []client.InputSpec, rl requestLayers, plain traffic) error {
	rep, err := restoreReplica(rc.ctx, cl, name, astro.GalAgeFunc(astro.Default()), 2)
	if err != nil {
		return err
	}
	var sr streamReplay
	for c, body := range bodies {
		if captured[c] == nil {
			continue // never served: the run was too short to reach it
		}
		seed, err := strconv.ParseInt(queries[c].Get("seed"), 10, 64)
		if err != nil {
			return err
		}
		if err := rep.replayStream(&sr, body, seed, captured[c], c == 0); err != nil {
			return err
		}
	}
	if sr.mismatch != "" {
		rc.noteInvalid(sr.mismatch)
	}
	rate, err := rep.poolRate(held, rc.seed)
	if err != nil {
		return err
	}
	pool := &layer{name: "exec.pool (2 clones)", ms: median(sr.pool)}
	encode := &layer{name: "wire.encode", ms: median(sr.encode)}
	if sr.mismatch != "" {
		pool.invalid, encode.invalid = sr.mismatch, sr.mismatch
	}
	handler := &layer{name: "server.handler", ms: rl.outerMs, kids: []*layer{
		{name: "wire.decode", ms: median(sr.decode)}, pool, encode,
	}}
	root := &layer{name: "client.rtt", ms: rl.rttMs, kids: []*layer{{name: "net.self", ms: rl.netMs}, handler}}
	printLadder(root, fmt.Sprintf("p50 per %d-tuple stream over %d traced streams, 1 in flight; %d streams replayed",
		len(held)/len(bodies), rl.n, len(bodies)))
	logf("    serial per tuple: dist.sample %.2f us, core.eval %.2f us", median(sr.sampleUs), median(sr.evalUs))
	rc.set("wire.decode_ms", median(sr.decode))
	rc.set("wire.encode_ms", median(sr.encode))
	rc.set("server.unattributed_ms", handler.unattributed())
	rc.set("dist.sample_us", median(sr.sampleUs))
	rc.set("core.eval_us", median(sr.evalUs))
	rc.set("core.clone_ms", rep.cloneMs)
	rc.set("exec.pool_tuples_per_s", rate)
	rc.set("exec.serving_share", 1-plain.tuplesPerS()/rate)
	rc.set("wire.req_bytes", meanLen(bodies))
	rc.set("wire.resp_bytes", meanLen(captured))
	return nil
}

// replayStream replays one captured stream request: the server's line
// decoding, its exec fan-out over frozen clones, and its line encoding,
// comparing the re-encoded answer with the served one. With serial set it
// also evaluates every tuple on one clone, timing sampling and evaluation.
func (r *replica) replayStream(sr *streamReplay, body []byte, seed int64, served []byte, serial bool) error {
	var tuples []*query.Tuple
	var specs []wire.InputSpec
	dec, err := timeMs(func() error {
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			var sl wire.StreamLine
			if err := decodeStrict(sc.Bytes(), &sl); err != nil {
				return err
			}
			t, err := sl.Input.Tuple(int64(len(tuples)))
			if err != nil {
				return err
			}
			tuples = append(tuples, t)
			specs = append(specs, sl.Input)
		}
		return sc.Err()
	})
	if err != nil {
		return err
	}
	p, err := r.pool()
	if err != nil {
		return err
	}
	var outs []*query.Tuple
	poolMs, err := timeMs(func() error {
		pe := p.Apply(query.NewScan(tuples), wire.AttrNames(len(specs[0])), "y", exec.Options{Seed: seed})
		defer pe.Close()
		var err error
		outs, err = query.Drain(pe)
		return err
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc, err := timeMs(func() error {
		e := json.NewEncoder(&buf)
		for _, t := range outs {
			v := t.MustGet("y")
			res := wire.StreamResult{EvalResult: resultOf(t.MustGet("id").I, v.Out, r.eps)}
			if err := e.Encode(res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), served) && sr.mismatch == "" {
		sr.mismatch = fmt.Sprintf("stream seed %d: %s", seed, firstDiff(buf.Bytes(), served))
	}
	sr.decode = append(sr.decode, dec)
	sr.pool = append(sr.pool, poolMs)
	sr.encode = append(sr.encode, enc)
	if !serial {
		return nil
	}
	for j, in := range specs {
		vec, err := in.Vector()
		if err != nil {
			return err
		}
		tr, err := r.evalTuple(vec, exec.TupleSeed(seed, int64(j)))
		if err != nil {
			return err
		}
		if supportHash(tr.out.Dist.Values()) != resultOf(0, outs[j].MustGet("y").Out, r.eps).SupportHash && sr.mismatch == "" {
			sr.mismatch = fmt.Sprintf("stream seed %d tuple %d: serial replay support_hash differs from the fan-out", seed, j)
		}
		sr.sampleUs = append(sr.sampleUs, tr.sampleUs)
		sr.evalUs = append(sr.evalUs, tr.evalUs)
	}
	return nil
}

// firstDiff describes the first line where two NDJSON answers differ.
func firstDiff(replayed, served []byte) string {
	a, b := bytes.Split(replayed, []byte("\n")), bytes.Split(served, []byte("\n"))
	for i := range min(len(a), len(b)) {
		if !bytes.Equal(a[i], b[i]) {
			return fmt.Sprintf("line %d replayed %s, served %s", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("replayed %d lines, served %d", len(a), len(b))
}
