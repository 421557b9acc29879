package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"olgapro/client"
	"olgapro/internal/exec"
	"olgapro/internal/fleet"
	"olgapro/internal/query"
	"olgapro/internal/server/wire"
)

const (
	scatterShards = 3
	scatterGroups = 16
	scatterTopK   = 4
	scatterBodies = 8 // distinct query bodies, cycled
	scatterEps    = 0.2
)

// scatterPredicate is the §5.5 TEP filter of every query: keep a row when
// P(0.52 < y < 5) ≥ 0.5. Over the input distribution below it drops about
// a third of the rows.
var scatterPredicate = client.PredicateSpec{A: 0.52, B: 5, Theta: 0.5}

// scatterFleet is a router over shards with one poly/smooth2d instance per
// shard, or, as the control, over one shard holding all three.
type scatterFleet struct {
	shards []*shard
	router *routerNode
	cl     *client.Client // to the router
	names  []string       // names[k] is owned by shards[k % len(shards)]
}

func (f *scatterFleet) close() {
	f.router.close()
	for _, s := range f.shards {
		s.close()
	}
}

// bootScatter boots n shards and a router over them and registers one
// instance per name, with names chosen so that instance k is owned by
// shard k on the router's placement ring (when n = 1, by the only shard).
func bootScatter(ctx context.Context, n int, names []string, tr *tracer) (*scatterFleet, error) {
	f := &scatterFleet{}
	urls := make([]string, n)
	for i := range urls {
		s, err := startShard(2, tr)
		if err != nil {
			f.closeShards()
			return nil, err
		}
		f.shards = append(f.shards, s)
		urls[i] = s.url
	}
	rt, err := startRouter(urls, tr)
	if err != nil {
		f.closeShards()
		return nil, err
	}
	f.router = rt
	f.cl = newClient(rt.url, tr)
	if names == nil {
		ring, err := fleet.NewRing(urls, 0)
		if err != nil {
			f.close()
			return nil, err
		}
		for _, u := range urls {
			for i := 0; ; i++ {
				if cand := fmt.Sprintf("u%d", i); ring.Owner(cand) == u {
					names = append(names, cand)
					break
				}
			}
		}
	}
	f.names = names
	for _, name := range names {
		if _, err := f.cl.Register(ctx, client.RegisterRequest{
			UDF: "poly/smooth2d", Name: name, Eps: scatterEps, Delta: 0.1, Warmup: smoothWarmup(), WarmupSeed: 3,
		}); err != nil {
			f.close()
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
	}
	return f, nil
}

func (f *scatterFleet) closeShards() {
	for _, s := range f.shards {
		s.close()
	}
}

// scatterRowsOf draws the n-row relation of one query body.
func scatterRowsOf(rng *rand.Rand, n int) []client.QueryRow {
	rows := make([]client.QueryRow, n)
	for i := range rows {
		rows[i] = client.QueryRow{Input: smoothInput(rng), Group: fmt.Sprintf("g%02d", rng.Intn(scatterGroups))}
	}
	return rows
}

// scatterBody builds query body b over the fleet's instance names: row i
// goes to instance i mod 3, then a TEP filter, a group-by over the 16
// groups with count and mean, and the bounded top 4 groups by mean.
func scatterBody(rows []client.QueryRow, names []string, b int) ([]byte, error) {
	rs := make([]client.QueryRow, len(rows))
	for i, r := range rows {
		r.UDF = names[i%len(names)]
		rs[i] = r
	}
	pred := scatterPredicate
	return json.Marshal(client.QueryRequest{
		Rows:      rs,
		Seed:      int64(b + 1),
		Predicate: &pred,
		GroupBy: &client.GroupBySpec{
			Keys: []string{"g"},
			Aggs: []client.AggSpec{{Kind: "count"}, {Kind: "avg", Attr: "y"}},
		},
		TopK: &client.TopKSpec{K: scatterTopK, By: "avg_y", Desc: true},
	})
}

func runQueryScatter(rc *runCtx) error {
	n := rc.size.scatterRows
	rng := rand.New(rand.NewSource(rc.seed))
	rows := make([][]client.QueryRow, scatterBodies)
	for b := range rows {
		rows[b] = scatterRowsOf(rng, n)
	}
	var bodies [][]byte
	answers := newFirstAnswers(scatterBodies, scatterBodies)
	var dropped []float64
	check := func(b int, body []byte) error {
		var qr client.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			return fmt.Errorf("query %d: %w", b, err)
		}
		frac := float64(qr.Dropped) / float64(n)
		if len(qr.Rows) < 1 || len(qr.Rows) > scatterGroups || qr.Dropped == 0 || qr.Dropped == n {
			return fmt.Errorf("query %d: %d answer rows, %d of %d rows dropped (want 1–%d rows, the predicate dropping some but not all)",
				b, len(qr.Rows), qr.Dropped, n, scatterGroups)
		}
		first, err := answers.record(b, body)
		if first {
			dropped = append(dropped, frac)
		}
		return err
	}
	run := func(ctx context.Context, f *scatterFleet, b int) error {
		body, err := post(ctx, f.cl, "/v1/query", bodies[b], "application/json")
		if err == nil {
			err = check(b, body)
		}
		return err
	}

	env, err := repeatSetup(rc, 5, func() (*scatterFleet, error) {
		f, err := bootScatter(rc.ctx, scatterShards, nil, rc.tr)
		if err != nil {
			return nil, err
		}
		bodies = bodies[:0]
		for b := range rows {
			body, err := scatterBody(rows[b], f.names, b)
			if err != nil {
				f.close()
				return nil, err
			}
			bodies = append(bodies, body)
		}
		if err := run(rc.ctx, f, 0); err != nil {
			f.close()
			return nil, err
		}
		return f, nil
	})
	if err != nil {
		return err
	}
	defer env.close()

	// The control: one shard holding the same three instances must give
	// every query the same bytes. Built after the timed set-ups.
	start := time.Now()
	ctl, err := bootScatter(rc.ctx, 1, env.names, nil)
	if err != nil {
		return fmt.Errorf("control fleet: %w", err)
	}
	for b := range bodies {
		rc.attempt(1)
		if err := run(rc.ctx, ctl, b); err != nil {
			rc.failf("control: %v", err)
		}
	}
	ctl.close()
	logf("  single-shard control: %d queries answered in %.2f s (not part of setup_s)", len(bodies), time.Since(start).Seconds())

	// Requests cycle through the bodies across slices.
	next := 0
	do := func(ctx context.Context, _ int) (int, error) {
		b := next % scatterBodies
		next++
		err := rc.tr.call(ctx, func(ctx context.Context) error {
			rc.tr.tag(ctx, b)
			return run(ctx, env, b)
		})
		if err != nil {
			rc.logFailure(err.Error())
			return 0, err
		}
		return n, nil
	}
	drive := func(d time.Duration) []slice {
		return rc.sliced(d, func(int) traffic { return closedLoop(rc.ctx, 1, rc.size.slice, do) })
	}

	seqs := func() (map[string]client.UDFInfo, error) {
		list, err := env.cl.ListUDFs(rc.ctx)
		if err != nil {
			return nil, err
		}
		out := map[string]client.UDFInfo{}
		for _, u := range list.UDFs {
			out[u.Name] = u
		}
		return out, nil
	}
	if !rc.trace {
		rc.measure(func() {
			ss := drive(rc.dur)
			rc.setTraffic(ss, ss, ss)
		})
		st, err := env.cl.Stats(rc.ctx)
		if err != nil {
			return err
		}
		calls := 0
		for _, u := range st.UDFs {
			calls += u.UDFCalls
		}
		rc.set("udf_calls_per_tuple", float64(calls)/float64(len(env.names)*len(smoothWarmup())))
	} else {
		before, err := seqs()
		if err != nil {
			return err
		}
		plain := drive(rc.dur / 2)
		rc.tr.on.Store(true)
		traced := drive(rc.dur / 2)
		rc.tr.on.Store(false)
		after, err := seqs()
		if err != nil {
			return err
		}
		var bumps, points float64
		for _, name := range env.names {
			bumps += float64(after[name].ModelSeq - before[name].ModelSeq)
			points += float64(after[name].TrainingPoints) / float64(len(env.names))
		}
		spans := rc.tr.snapshot()
		rl, err := spanLayers(spans)
		if err != nil {
			return err
		}
		rc.setCommonLayers(rl, plain, traced)
		rc.set("server.seq_bumps", bumps)
		rc.set("core.points", points)
		if err := rc.scatterLadder(env, bodies, answers.bodies, spans, rl, merged(plain)); err != nil {
			return err
		}
	}
	logf("  query.dropped_frac %.3f", mean(dropped))

	// Two queries once more: the answers must not drift.
	for b := 0; b < 2; b++ {
		rc.attempt(1)
		if err := run(rc.ctx, env, b); err != nil {
			rc.failf("replay query %d: %v", b, err)
		}
	}
	return nil
}

// scatterReplay is one traced query replayed layer by layer.
type scatterReplay struct {
	routerDecode, merge, encode float64 // router side
	shardDecode, pool, partials float64 // replayed shard side of the slowest shard call
	partialsBytes               int
}

func (rc *runCtx) scatterLadder(env *scatterFleet, bodies, captured [][]byte, spans []span, rl requestLayers, plain traffic) error {
	reps := map[string]*replica{}
	for k, name := range env.names {
		r, err := restoreReplica(rc.ctx, newClient(env.shards[k].url, nil), name, smoothUDF(), 2)
		if err != nil {
			return err
		}
		reps[name] = r
	}
	rc.tr.mu.Lock()
	tags := rc.tr.tags
	exchanges := rc.tr.exchanges
	rc.tr.mu.Unlock()

	var out []scatterReplay
	var mismatch string
	var served servedStats
	var sampleUs, evalUs []float64
	var firstCalls []span
	done := map[int]bool{}
	for _, r := range requests(spans) {
		b, ok := tags[r.id]
		if !ok || done[b] || len(r.calls) == 0 {
			continue
		}
		done[b] = true
		sr, err := replayScatter(reps, bodies[b], captured[b], r, exchanges, &served, &mismatch)
		if err != nil {
			return err
		}
		out = append(out, sr)
		if len(sampleUs) == 0 {
			firstCalls = r.calls
			s, e, err := serialScatter(reps, exchanges[r.calls[0].ID])
			if err != nil {
				return err
			}
			sampleUs, evalUs = s, e
		}
	}
	if len(out) == 0 {
		return fmt.Errorf("ladder: no traced query with captured shard exchanges")
	}
	concurrent, err := concurrentPartials(reps, firstCalls, exchanges)
	if err != nil {
		return err
	}
	if mismatch != "" {
		rc.noteInvalid(mismatch)
	}
	med := func(f func(scatterReplay) float64) float64 {
		xs := make([]float64, len(out))
		for i, sr := range out {
			xs[i] = f(sr)
		}
		return median(xs)
	}
	shard := &layer{name: "shard.handler (slowest call)", ms: rl.innerMs, kids: []*layer{
		{name: "wire.decode", ms: med(func(s scatterReplay) float64 { return s.shardDecode })},
		{name: "exec.pool (2 clones)", ms: med(func(s scatterReplay) float64 { return s.pool })},
		{name: "query.partials + wire.encode", ms: med(func(s scatterReplay) float64 { return s.partials })},
	}}
	call := &layer{name: "fleet.shard_call (slowest)", ms: rl.shardMs, kids: []*layer{
		{name: "loopback hop", ms: rl.hopMs}, shard,
	}}
	merge := &layer{name: "query.merge", ms: med(func(s scatterReplay) float64 { return s.merge })}
	encode := &layer{name: "wire.encode", ms: med(func(s scatterReplay) float64 { return s.encode })}
	if mismatch != "" {
		merge.invalid, shard.invalid = mismatch, mismatch
	}
	router := &layer{name: "router.handler", ms: rl.outerMs, kids: []*layer{
		{name: "wire.decode (+ scatter split)", ms: med(func(s scatterReplay) float64 { return s.routerDecode })},
		call, merge, encode,
	}}
	root := &layer{name: "client.rtt", ms: rl.rttMs, kids: []*layer{{name: "net.self", ms: rl.netMs}, router}}
	printLadder(root, fmt.Sprintf("p50 per %d-row query over %d traced queries, 1 in flight; %d queries replayed",
		rc.size.scatterRows, rl.n, len(out)))
	logf("    fleet.router_self (router span − union of shard calls) %.3f ms, fanout %.2f shard calls per query",
		rl.routerMs, rl.fanout)
	logf("    the replayed shard layers ran one shard at a time; all three shards' partial plans replayed at once take %.1f ms,"+
		" since the co-located shards share the host's CPUs", concurrent)
	logf("    wire.partials_bytes %.0f per query; serial per tuple: dist.sample %.2f us, core.eval %.2f us",
		med(func(s scatterReplay) float64 { return float64(s.partialsBytes) }), median(sampleUs), median(evalUs))

	var allIn []client.InputSpec
	for b := 0; b < 2; b++ {
		var req client.QueryRequest
		if err := json.Unmarshal(bodies[b], &req); err != nil {
			return err
		}
		for _, row := range req.Rows {
			allIn = append(allIn, row.Input)
		}
	}
	rate, err := reps[env.names[0]].poolRate(allIn, rc.seed)
	if err != nil {
		return err
	}
	rc.set("wire.decode_ms", med(func(s scatterReplay) float64 { return s.routerDecode + s.shardDecode }))
	rc.set("wire.encode_ms", med(func(s scatterReplay) float64 { return s.encode + s.partials }))
	rc.set("server.unattributed_ms", router.unattributed())
	rc.set("dist.sample_us", median(sampleUs))
	rc.set("core.eval_us", median(evalUs))
	rc.set("core.clone_ms", reps[env.names[0]].cloneMs)
	rc.set("exec.pool_tuples_per_s", rate)
	rc.set("exec.serving_share", 1-plain.tuplesPerS()/rate)
	rc.set("wire.req_bytes", meanLen(bodies))
	rc.set("wire.resp_bytes", meanLen(captured))
	rc.setServed(&served)
	return nil
}

// replayScatter replays one traced query: the router's decoding and
// scatter split, each shard's partial plan, then the router's merge and
// encoding. Each replayed stage must reproduce the bytes that crossed the
// wire: the sub-requests the router sent, the partials each shard returned,
// and the answer the client got.
func replayScatter(reps map[string]*replica, body, served []byte, r reqTrace, exchanges map[int64]exchange,
	st *servedStats, mismatch *string) (scatterReplay, error) {
	var sr scatterReplay
	note := func(format string, args ...any) {
		if *mismatch == "" {
			*mismatch = fmt.Sprintf(format, args...)
		}
	}
	var req wire.QueryRequest
	var gb query.GroupBySpec
	var tk query.RankSpec
	subs := map[string][]byte{}
	var err error
	sr.routerDecode, err = timeMs(func() error {
		if err := decodeStrict(body, &req); err != nil {
			return err
		}
		if _, err := req.Predicate.Predicate(); err != nil {
			return err
		}
		var err error
		if gb, err = req.GroupBy.Spec(); err != nil {
			return err
		}
		if tk, err = req.TopK.Spec(); err != nil {
			return err
		}
		parts := map[string]*wire.QueryPartialsRequest{}
		var order []string
		for i, row := range req.Rows {
			p, ok := parts[row.UDF]
			if !ok {
				p = &wire.QueryPartialsRequest{UDF: row.UDF, Seed: req.Seed, Predicate: req.Predicate, GroupBy: req.GroupBy}
				parts[row.UDF] = p
				order = append(order, row.UDF)
			}
			p.Rows = append(p.Rows, wire.PartialRowSpec{Ord: int64(i), Input: row.Input, Group: row.Group})
		}
		for _, name := range order {
			b, err := json.Marshal(parts[name])
			if err != nil {
				return err
			}
			subs[name] = b
		}
		return nil
	})
	if err != nil {
		return sr, fmt.Errorf("replay router decode: %w", err)
	}

	slow := r.calls[0]
	for _, c := range r.calls {
		if c.ms() > slow.ms() {
			slow = c
		}
	}
	var lists [][]byte
	for _, c := range r.calls {
		ex, ok := exchanges[c.ID]
		if !ok {
			return sr, fmt.Errorf("replay: shard call %d was not captured", c.ID)
		}
		var preq wire.QueryPartialsRequest
		if err := json.Unmarshal(ex.req, &preq); err != nil {
			return sr, err
		}
		if !bytes.Equal(subs[preq.UDF], ex.req) {
			note("router sub-request for %s differs from the one sent", preq.UDF)
		}
		rep := reps[preq.UDF]
		dec, pool, parts, out, err := rep.replayPartials(ex.req, st)
		if err != nil {
			return sr, err
		}
		if !bytes.Equal(out, ex.resp) {
			note("shard partials for %s differ from the ones served", preq.UDF)
		}
		if c.ID == slow.ID {
			sr.shardDecode, sr.pool, sr.partials = dec, pool, parts
		}
		sr.partialsBytes += len(ex.resp)
		lists = append(lists, ex.resp)
	}

	var rows [][]wire.QueryValue
	dropped := 0
	sr.merge, err = timeMs(func() error {
		var groups [][]*query.GroupPartial
		for _, b := range lists {
			var qp wire.QueryPartials
			if err := json.Unmarshal(b, &qp); err != nil {
				return err
			}
			dropped += qp.Dropped
			list := make([]*query.GroupPartial, len(qp.Groups))
			for i, g := range qp.Groups {
				gp, err := g.GroupPartial()
				if err != nil {
					return err
				}
				list[i] = gp
			}
			groups = append(groups, list)
		}
		merged, err := query.MergeGroupPartials(groups...)
		if err != nil {
			return err
		}
		tuples, err := query.FinishGroupPartials(gb, merged)
		if err != nil {
			return err
		}
		out, err := query.Drain(query.NewTopK(query.NewScan(tuples), tk))
		if err != nil {
			return err
		}
		for _, t := range out {
			row := make([]wire.QueryValue, 0, t.Len())
			for _, name := range t.Names() {
				qv, err := wire.EncodeValue(name, t.MustGet(name))
				if err != nil {
					return err
				}
				row = append(row, qv)
			}
			rows = append(rows, row)
		}
		return nil
	})
	if err != nil {
		return sr, fmt.Errorf("replay merge: %w", err)
	}
	var answer []byte
	sr.encode, err = timeMs(func() error {
		var err error
		answer, err = encodeJSON(wire.QueryResponse{UDF: req.UDF, Rows: rows, Dropped: dropped})
		return err
	})
	if err != nil {
		return sr, err
	}
	if !bytes.Equal(answer, served) {
		note("merged answer differs from the one served")
	}
	return sr, nil
}

// replayPartials replays one shard's half of a scattered query, the way
// POST /v1/query/partials computes it: decode the sub-plan and build its
// tuples, evaluate them over the frozen fan-out seeded by global ordinal
// with the TEP filter, fold the survivors into group partials, and encode.
func (r *replica) replayPartials(body []byte, st *servedStats) (dec, pool, parts float64, out []byte, err error) {
	var req wire.QueryPartialsRequest
	var tuples []*query.Tuple
	dec, err = timeMs(func() error {
		if err := decodeStrict(body, &req); err != nil {
			return err
		}
		for _, row := range req.Rows {
			t, err := row.Input.Tuple(row.Ord)
			if err != nil {
				return err
			}
			tuples = append(tuples, t.With("g", query.Str(row.Group)))
		}
		return nil
	})
	if err != nil {
		return
	}
	pred, err := req.Predicate.Predicate()
	if err != nil {
		return
	}
	p, err := r.pool()
	if err != nil {
		return
	}
	ords := make([]int64, len(req.Rows))
	for i, row := range req.Rows {
		ords[i] = row.Ord
	}
	var survivors []*query.Tuple
	dropped := 0
	pool, err = timeMs(func() error {
		pe := p.Apply(query.NewScan(tuples), wire.AttrNames(len(req.Rows[0].Input)), "y",
			exec.Options{Seed: req.Seed, Ords: ords, Predicate: pred, KeepEnvelope: true})
		defer pe.Close()
		var err error
		survivors, err = query.Drain(pe)
		dropped = pe.Dropped
		return err
	})
	if err != nil {
		return
	}
	for _, t := range survivors {
		if st != nil {
			o := t.MustGet("y").Out
			st.add(&wire.EvalResult{Samples: o.Samples, LocalPoints: o.LocalPoints, Bound: o.Bound, Eps: r.eps})
		}
	}
	parts, err = timeMs(func() error {
		spec, err := req.GroupBy.Spec()
		if err != nil {
			return err
		}
		survOrds := make([]int64, len(survivors))
		for i, t := range survivors {
			survOrds[i] = t.MustGet("id").I
		}
		groups, err := query.GroupPartialsOf(survivors, survOrds, spec)
		if err != nil {
			return err
		}
		resp := wire.QueryPartials{UDF: req.UDF, ModelSeq: r.seq, Dropped: dropped}
		for _, gp := range groups {
			g, err := wire.GroupPartialOf(gp)
			if err != nil {
				return err
			}
			resp.Groups = append(resp.Groups, g)
		}
		out, err = encodeJSON(resp)
		return err
	})
	return
}

// concurrentPartials replays the shard halves of one query all at once,
// as the co-located shards ran them, and returns the wall time.
func concurrentPartials(reps map[string]*replica, calls []span, exchanges map[int64]exchange) (float64, error) {
	errs := make([]error, len(calls))
	ms, _ := timeMs(func() error {
		var wg sync.WaitGroup
		for i, c := range calls {
			ex := exchanges[c.ID]
			var req wire.QueryPartialsRequest
			if errs[i] = json.Unmarshal(ex.req, &req); errs[i] != nil {
				continue
			}
			wg.Add(1)
			go func(i int, rep *replica) {
				defer wg.Done()
				_, _, _, _, errs[i] = rep.replayPartials(ex.req, nil)
			}(i, reps[req.UDF])
		}
		wg.Wait()
		return nil
	})
	return ms, errors.Join(errs...)
}

// serialScatter evaluates one shard sub-plan's rows one at a time on a
// frozen clone, timing sampling and evaluation per tuple.
func serialScatter(reps map[string]*replica, ex exchange) (sampleUs, evalUs []float64, err error) {
	var req wire.QueryPartialsRequest
	if err := json.Unmarshal(ex.req, &req); err != nil {
		return nil, nil, err
	}
	rep := reps[req.UDF]
	for _, row := range req.Rows {
		vec, err := row.Input.Vector()
		if err != nil {
			return nil, nil, err
		}
		tr, err := rep.evalTuple(vec, exec.TupleSeed(req.Seed, row.Ord))
		if err != nil {
			return nil, nil, err
		}
		sampleUs = append(sampleUs, tr.sampleUs)
		evalUs = append(evalUs, tr.evalUs)
	}
	return sampleUs, evalUs, nil
}
