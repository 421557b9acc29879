package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"olgapro/client"
	"olgapro/internal/server/wire"
	"olgapro/internal/udf"
)

const (
	mixWarmup = 8  // warm-up tuples per registration
	mixReads  = 64 // distinct frozen read inputs
	mixChunk  = 10 // learned tuples per learn stream, and per frozen read
	mixEps    = 0.1
	mixDelta  = 0.05
)

// mixPathSeed fixes the learned stream. Every seed learns the same
// drifting path, so every run does the same learning work and the seed
// varies the traffic beside it: the frozen reads.
const mixPathSeed = 1

// mixInputs draws the drifting learn stream, its warm-up, and the read
// inputs for mix/f3 on [0, 10]²: the means walk across the domain along a
// path (σ = 0.5, §6.1-B), so learning keeps reaching regions the model has
// not seen. The warm-up comes from the start of the path; the reads, drawn
// from the seed, from anywhere on it.
func mixInputs(seed int64, n int) (learn, warmup, reads []client.InputSpec) {
	path := rand.New(rand.NewSource(mixPathSeed))
	phase := 2 * math.Pi * path.Float64()
	at := func(rng *rand.Rand, t float64) client.InputSpec {
		clamp := func(v float64) float64 { return math.Max(1, math.Min(9, v)) }
		return normalInput([]float64{
			clamp(1.5 + 7*t + 0.5*rng.NormFloat64()),
			clamp(5 + 3*math.Sin(phase+3*math.Pi*t) + 0.5*rng.NormFloat64()),
		}, 0.5)
	}
	for i := 0; i < n; i++ {
		learn = append(learn, at(path, float64(i)/float64(n-1)))
	}
	for i := 0; i < mixWarmup; i++ {
		warmup = append(warmup, at(path, 0.05*path.Float64()))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < mixReads; i++ {
		reads = append(reads, at(rng, rng.Float64()))
	}
	return learn, warmup, reads
}

type mixEnv struct {
	sh *shard
	cl *client.Client
}

func (e *mixEnv) close() { e.sh.close() }

// mixRound is what one round measured.
type mixRound struct {
	setupS    float64
	reads     traffic
	learnS    float64 // from the learn stream's send to its last line
	udfCalls  int
	seqBumps  int64
	mallocs   uint64
	k         int         // the host-reference probe before the round
	f         float64     // the round's host-speed factor
	served    servedStats // reads re-served after learning
	replayReq [][]byte    // traced rounds: those reads' bodies
	replayAns [][]byte    // and their answers
}

func runLearnMixed(rc *runCtx) error {
	n := rc.size.mixLearn
	learnIn, warmup, readIn := mixInputs(rc.seed, n)
	var learnBodies [][]byte
	var learnSizes []int
	for c := 0; c < n; c += mixChunk {
		chunk := learnIn[c:min(c+mixChunk, n)]
		b, err := client.StreamBody(chunk)
		if err != nil {
			return err
		}
		learnBodies, learnSizes = append(learnBodies, b), append(learnSizes, len(chunk))
	}
	falseV := false
	readBodies := make([][]byte, mixReads)
	for i, in := range readIn {
		b, err := json.Marshal(client.EvalRequest{Input: in, Seed: int64(i + 1), Learn: &falseV})
		if err != nil {
			return err
		}
		readBodies[i] = b
	}
	// Reads taken while the model learns can miss ε legitimately: a frozen
	// clone cannot add points where the model has not learned yet. So the
	// (ε, δ) check applies to the reads taken once a round has learned; the
	// rate during learning is reported.
	var learned, readsDuring, readsAfter budget
	nextRead := 0 // reads cycle through the read inputs across rounds

	// env is the latest round's shard; a round closes the one before it.
	var env *mixEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	const name = "mix"
	path := "/v1/udfs/" + name + "/eval"
	read := func(ctx context.Context, k int, frozen *budget) ([]byte, error) {
		body, err := post(ctx, env.cl, path, readBodies[k], "application/json")
		if err != nil {
			return nil, err
		}
		var res wire.EvalResult
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, err
		}
		return body, checkResult(&res, frozen)
	}

	// One round: boot a shard and register the instance (set-up, timed up
	// to its first answered read), then learn the drifting path while a
	// second client reads the same instance; afterwards, the frozen answers
	// must be stable. The path is learned as consecutive streams of
	// mixChunk tuples, and a read falls due as each stream completes, while
	// the next one learns: the mix of reads and writes does not depend on
	// the host's speed. Each read is timed from its due time.
	round := func(traced bool) (mixRound, error) {
		var mr mixRound
		if env != nil {
			env.close()
			env = nil
		}
		start := time.Now()
		sh, err := startShard(2, rc.tr)
		if err != nil {
			return mr, err
		}
		env = &mixEnv{sh: sh, cl: newClient(sh.url, rc.tr)}
		if _, err := env.cl.Register(rc.ctx, client.RegisterRequest{
			UDF: "mix/f3", Name: name, Eps: mixEps, Delta: mixDelta, Warmup: warmup, WarmupSeed: mixPathSeed,
		}); err != nil {
			return mr, err
		}
		if _, err := read(rc.ctx, 0, &readsDuring); err != nil {
			return mr, err
		}
		mr.setupS = time.Since(start).Seconds()
		rc.attempt(1)
		before, err := udfInfo(rc.ctx, env.cl, name)
		if err != nil {
			return mr, err
		}

		if traced {
			rc.tr.on.Store(true)
		}
		m0 := mallocs()
		due := make(chan time.Time, len(learnBodies)) // one send per stream, never blocks
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			mr.reads = pacedLoop(rc.ctx, due, func(ctx context.Context, _ int) (int, error) {
				err := rc.tr.call(ctx, func(ctx context.Context) error {
					_, err := read(ctx, nextRead%mixReads, &readsDuring)
					nextRead++
					return err
				})
				if err != nil {
					rc.logFailure(err.Error())
					return 0, err
				}
				return 1, nil
			})
		}()
		learnStart := time.Now()
		for c, body := range learnBodies {
			if err = learnStream(rc.ctx, env.cl, name, body, mixPathSeed*1000+int64(c), learnSizes[c], &learned); err != nil {
				break
			}
			due <- time.Now()
		}
		mr.learnS = time.Since(learnStart).Seconds()
		close(due)
		wg.Wait()
		mr.mallocs = mallocs() - m0
		if traced {
			rc.tr.on.Store(false)
		}
		rc.account(mr.reads)
		rc.attempt(1)
		if err != nil {
			return mr, err
		}

		after, err := udfInfo(rc.ctx, env.cl, name)
		if err != nil {
			return mr, err
		}
		mr.seqBumps = after.ModelSeq - before.ModelSeq
		st, err := udfStats(rc.ctx, env.cl, name)
		if err != nil {
			return mr, err
		}
		mr.udfCalls = st.UDFCalls

		// The model no longer changes: every read, issued twice, must get
		// the same bytes both times.
		for k := 0; k < mixReads; k++ {
			rc.attempt(2)
			a, err := read(rc.ctx, k, &readsAfter)
			if err != nil {
				rc.failf("read %d after learning: %v", k, err)
				continue
			}
			b, err := read(rc.ctx, k, &readsAfter)
			if err != nil || hashBytes(a) != hashBytes(b) {
				rc.failf("read %d after learning: second answer differs (%v)", k, err)
				continue
			}
			var res wire.EvalResult
			if err := json.Unmarshal(a, &res); err == nil {
				mr.served.add(&res)
			}
			if traced {
				mr.replayReq = append(mr.replayReq, readBodies[k])
				mr.replayAns = append(mr.replayAns, a)
			}
		}
		return mr, nil
	}

	// Each round is one slice of the run, bracketed by host-reference
	// probes (hostref.go).
	runRounds := func(d time.Duration, traced bool) ([]mixRound, error) {
		var rs []mixRound
		end := time.Now().Add(d)
		for len(rs) == 0 || time.Now().Before(end) {
			var mr mixRound
			var err error
			k := rc.ref.slice(func() { mr, err = round(traced) })
			if err != nil {
				return nil, err
			}
			mr.k = k
			rs = append(rs, mr)
		}
		for i := range rs {
			rs[i].f = rc.ref.factor(rs[i].k)
		}
		return rs, nil
	}
	d := rc.dur
	if rc.trace {
		d /= 2
	}
	rounds, err := runRounds(d, false)
	if err != nil {
		return err
	}
	var tracedRounds []mixRound
	if rc.trace {
		if tracedRounds, err = runRounds(d, true); err != nil {
			return err
		}
	}
	if err := learned.check(mixDelta); err != nil {
		rc.failf("learned answers: %v", err)
	}
	if err := readsAfter.check(mixDelta); err != nil {
		rc.failf("frozen reads after learning: %v", err)
	}
	logf("  frozen reads meeting ε: %d of %d while learning, %d of %d after",
		readsDuring.met.Load(), readsDuring.total.Load(), readsAfter.met.Load(), readsAfter.total.Load())
	st, err := env.cl.Stats(rc.ctx)
	if err != nil {
		return err
	}
	if st.TotalSavedCalls <= 0 {
		rc.failf("/v1/stats reports %d saved UDF calls after learning", st.TotalSavedCalls)
	}

	// The reads' latencies, as slices for the shared helpers.
	readSlices := func(rs []mixRound) []slice {
		var ss []slice
		for _, mr := range rs {
			ss = append(ss, slice{t: mr.reads, f: mr.f})
		}
		return ss
	}
	var setups, rates, raw []float64
	var calls int
	var mal uint64
	var readTuples int64
	var plainLearnS float64
	for _, mr := range rounds {
		setups = append(setups, mr.setupS*mr.f)
		rates = append(rates, float64(n)/mr.learnS/mr.f)
		raw = append(raw, float64(n)/mr.learnS)
		calls += mr.udfCalls
		mal += mr.mallocs
		readTuples += mr.reads.tuples
		plainLearnS += mr.learnS
	}
	tuples := float64(len(rounds) * n)
	reads := readSlices(rounds)
	p50, p90 := latencyQuantile(reads, .5), latencyQuantile(reads, .9)
	logf("  %d rounds of %d learned tuples: %.1f tuples/s at reference speed (as measured %s); %d reads, one per %d learned: p50 %.2f ms, p90 %.2f ms; %d UDF calls per round",
		len(rounds), n, median(rates), fmtList(raw, 1), readTuples, mixChunk, p50, p90, rounds[0].udfCalls)
	if !rc.trace {
		logf("  set-up at reference speed: %s s (median of %d rounds)", fmtList(setups, 3), len(setups))
		rc.set("setup_s", median(setups))
		rc.set("req_p50_ms", p50)
		rc.set("tuples_per_s", median(rates))
		rc.set("udf_calls_per_tuple", float64(calls)/float64(len(rounds)*(n+mixWarmup)))
		// Allocations while learning, over the tuples served meanwhile:
		// learned and read.
		rc.set("allocs_per_tuple", float64(mal)/(tuples+float64(readTuples)))
		rc.set("heap_retained_mb", retainedMB())
		return nil
	}

	rl, err := spanLayers(rc.tr.snapshot())
	if err != nil {
		return err
	}
	rc.setCommonLayers(rl, readSlices(rounds), readSlices(tracedRounds))
	last := tracedRounds[len(tracedRounds)-1]
	var bumps []float64
	var learnS float64
	for _, mr := range append(append([]mixRound(nil), rounds...), tracedRounds...) {
		bumps = append(bumps, float64(mr.seqBumps))
		learnS += mr.learnS
	}
	rc.set("server.seq_bumps", mean(bumps))
	info, err := udfInfo(rc.ctx, env.cl, name)
	if err != nil {
		return err
	}
	rc.set("core.points", float64(info.TrainingPoints))
	rep, err := restoreReplica(rc.ctx, env.cl, info.Name, udf.Standard(udf.F3, 1), 2)
	if err != nil {
		return err
	}
	er, err := replayEvals(rep, last.replayReq, last.replayAns)
	if err != nil {
		return err
	}
	if er.mismatch != "" {
		rc.noteInvalid(er.mismatch)
	}
	root, handler := er.ladder(rl)
	printLadder(root, fmt.Sprintf("p50 per read over %d traced reads taken while learning, 1 in flight; "+
		"layers replayed on the learned model from %d reads re-served after learning", rl.n, len(last.replayReq)))
	// The stream's response is buffered, so lines arrive in bursts: the
	// per-tuple learning time is the stream's duration over its tuples.
	logf("    server.read_wait (read handler − replayed frozen eval path) %.3f ms; server.learn_tuple %.2f ms; "+
		"%.1f model-seq bumps per round", handler.unattributed(), 1e3*learnS/float64(len(bumps)*n), mean(bumps))
	rc.setEvalLayers(er, handler)
	rate, err := rep.poolRate(learnIn, rc.seed)
	if err != nil {
		return err
	}
	rc.set("core.clone_ms", rep.cloneMs)
	rc.set("exec.pool_tuples_per_s", rate)
	rc.set("exec.serving_share", 1-tuples/plainLearnS/rate)
	rc.set("wire.req_bytes", meanLen(last.replayReq))
	rc.set("wire.resp_bytes", meanLen(last.replayAns))
	rc.setServed(&last.served)
	return nil
}
