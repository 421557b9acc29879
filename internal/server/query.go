package server

// This file is the one bounded-query path. POST /v1/query runs an
// uncertain-algebra plan — UDF application with optional §5.5 TEP filter,
// then optional window / group-by / top-k stages with [certain, possible]
// answers — over a relation whose rows may name different UDF instances.
// RunQuery answers it the same way on a shard and on the fleet router: the
// rows are split by instance, each instance's sub-plan is evaluated into
// mergeable partial bounded state (POST /v1/query/partials, or in process
// on a shard), and the partial states are merged into one answer. Every
// row keeps its global ordinal in the union relation, so per-tuple seeding,
// group first-seen order, window positions and rank tie-breaks come out
// exactly as the serial plan over the whole relation would compute them
// (see internal/query/partial.go for the merge algebra and its property
// tests). A single-instance query on a shard is the one-partition case.
//
// Responses are a deterministic function of (model state, request), so the
// bytes replay across snapshot→restart, exactly like ?learn=false streams.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/exec"
	"olgapro/internal/mc"
	"olgapro/internal/query"
	"olgapro/internal/server/wire"
)

// PartialsFunc evaluates one UDF instance's sub-plan: in process on a shard
// (Server.partials), over POST /v1/query/partials on the fleet router.
type PartialsFunc func(context.Context, *wire.QueryPartialsRequest) (*wire.QueryPartials, error)

// handleQuery answers a bounded query over the instances this shard hosts.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ServeQuery(w, r, s.partials)
}

// handleQueryPartials runs the per-instance half of a distributed query.
// The response carries the model sequence it was computed at, in the body
// and the Olgapro-Model-Seq header.
func (s *Server) handleQueryPartials(w http.ResponseWriter, r *http.Request) {
	var b queryBody[wire.QueryPartialsRequest]
	if err := b.decode(r, "partials request", wire.DecodeQueryPartialsRequest); err != nil {
		WriteError(w, err)
		return
	}
	resp, err := s.partials(r.Context(), &b.req)
	if err != nil {
		WriteError(w, err)
		return
	}
	w.Header().Set(wire.HeaderModelSeq, strconv.FormatInt(resp.ModelSeq, 10))
	WriteJSON(w, http.StatusOK, resp)
}

// ServeQuery is POST /v1/query on shard and router alike: decode the
// request, answer it with RunQuery, write the answer with its
// Olgapro-Query-Seqs header. The answer is marshalled before the status
// goes out, so one that cannot be encoded is a 500 internal envelope
// rather than a 200 with an empty body.
func ServeQuery(w http.ResponseWriter, r *http.Request, fetch PartialsFunc) {
	var b queryBody[wire.QueryRequest]
	if err := b.decode(r, "query request", wire.DecodeQueryRequest); err != nil {
		WriteError(w, err)
		return
	}
	resp, seqs, err := RunQuery(r.Context(), &b.req, fetch)
	var body []byte
	if err == nil {
		if body, err = json.Marshal(resp); err != nil {
			err = Errorf(http.StatusInternalServerError, wire.CodeInternal, "encode answer: %v", err)
		}
	}
	if err != nil {
		WriteError(w, err)
		return
	}
	w.Header().Set(wire.HeaderQuerySeqs, seqs)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(body, '\n'))
}

// queryBody is one query or partials request's decode target, the scratch
// its rows are cut from, and the reader encoding/json decodes through.
type queryBody[T any] struct {
	rd  bytes.Reader
	sc  wire.QueryScratch
	req T
}

// decode reads a query or partials body and decodes it into b.req: by the
// fast path when it accepts the body, else by encoding/json, which refuses
// the body with its own error.
func (b *queryBody[T]) decode(r *http.Request, what string, fast func([]byte, *T, *wire.QueryScratch) bool) error {
	body, err := ReadBody(r, nil)
	if err != nil {
		return err
	}
	if fast(body, &b.req, &b.sc) {
		return nil
	}
	b.rd.Reset(body)
	if err := decodeStrict(&b.rd, &b.req); err != nil {
		return Errorf(http.StatusBadRequest, wire.CodeBadSpec, "bad %s: %v", what, err)
	}
	return nil
}

// RunQuery answers one bounded query: validate, split the rows by UDF
// instance (a row with no udf uses the request's), fetch every instance's
// partial state concurrently, and merge. Only the first stage of the plan
// (window, then group-by, then top-k) travels with the sub-plans; later
// stages run over the merged tuples, which by then carry only
// self-contained values (ints, strings, bounds). It returns the answer and
// the Olgapro-Query-Seqs value naming the model sequence each instance
// answered at. Refusals are *Error values; fetch errors pass through.
func RunQuery(ctx context.Context, req *wire.QueryRequest, fetch PartialsFunc) (*wire.QueryResponse, string, error) {
	if len(req.Rows) == 0 {
		return nil, "", Errorf(http.StatusBadRequest, wire.CodeBadSpec, "query needs at least one row")
	}
	if len(req.Rows) > wire.MaxQueryRows {
		return nil, "", Errorf(http.StatusRequestEntityTooLarge, wire.CodeOverCapacity,
			"query has %d rows, cap is %d (use /v1/udfs/{name}/stream for bulk evaluation)", len(req.Rows), wire.MaxQueryRows)
	}
	st, err := stagesOf(req.Predicate, req.Window, req.GroupBy, req.TopK)
	if err != nil {
		return nil, "", err
	}

	var subs []*wire.QueryPartialsRequest
	byName := make(map[string]*wire.QueryPartialsRequest)
	for i, row := range req.Rows {
		name := row.UDF
		if name == "" {
			name = req.UDF
		}
		if name == "" {
			return nil, "", Errorf(http.StatusBadRequest, wire.CodeBadSpec, "row %d names no udf and the request has no default", i)
		}
		sub, ok := byName[name]
		if !ok {
			sub = &wire.QueryPartialsRequest{UDF: name, Seed: req.Seed, Predicate: req.Predicate, MinSeq: req.RequireSeq[name]}
			switch {
			case req.Window != nil:
				sub.Window = req.Window
			case req.GroupBy != nil:
				sub.GroupBy = req.GroupBy
			case req.TopK != nil:
				sub.TopK = req.TopK
			}
			byName[name] = sub
			subs = append(subs, sub)
		}
		sub.Rows = append(sub.Rows, wire.PartialRowSpec{Ord: int64(i), Input: row.Input, Group: row.Group})
	}
	// The merge is independent of partition order; name order makes the
	// seqs header come out sorted.
	sort.Slice(subs, func(a, b int) bool { return subs[a].UDF < subs[b].UDF })

	parts := make([]*wire.QueryPartials, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = fetch(ctx, sub)
		}()
	}
	wg.Wait()
	pairs := make([]string, len(subs))
	dropped := 0
	for i, err := range errs {
		if err != nil {
			return nil, "", err
		}
		pairs[i] = subs[i].UDF + ":" + strconv.FormatInt(parts[i].ModelSeq, 10)
		dropped += parts[i].Dropped
	}

	rows, err := st.merge(parts)
	if err != nil {
		return nil, "", Errorf(http.StatusInternalServerError, wire.CodeInternal, "merge partials: %v", err)
	}
	if len(rows) > wire.MaxQueryRows {
		return nil, "", Errorf(http.StatusRequestEntityTooLarge, wire.CodeOverCapacity,
			"merged result has %d rows, cap is %d", len(rows), wire.MaxQueryRows)
	}
	return &wire.QueryResponse{UDF: req.UDF, Rows: rows, Dropped: dropped}, strings.Join(pairs, ","), nil
}

// stages is a plan's converted predicate and stage specs; nil means the
// plan has no such stage.
type stages struct {
	pred    *mc.Predicate
	window  *query.WindowSpec
	groupBy *query.GroupBySpec
	topK    *query.RankSpec
}

// stagesOf validates and converts a plan's wire specs; a bad one is a 400
// bad_spec refusal.
func stagesOf(p *wire.PredicateSpec, w *wire.WindowSpec, g *wire.GroupBySpec, k *wire.TopKSpec) (stages, error) {
	var st stages
	var err error
	bad := func(err error) (stages, error) {
		return stages{}, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "%v", err)
	}
	if p != nil {
		if st.pred, err = p.Predicate(); err != nil {
			return bad(err)
		}
	}
	if w != nil {
		s, err := w.Spec()
		if err != nil {
			return bad(err)
		}
		st.window = &s
	}
	if g != nil {
		s, err := g.Spec()
		if err != nil {
			return bad(err)
		}
		st.groupBy = &s
	}
	if k != nil {
		s, err := k.Spec()
		if err != nil {
			return bad(err)
		}
		st.topK = &s
	}
	return st, nil
}

// merge folds the instances' partial states into the answer rows for the
// plan's first stage, then runs any later stages over the merged tuples.
func (st stages) merge(parts []*wire.QueryPartials) ([][]wire.QueryValue, error) {
	switch {
	case st.window != nil:
		entries := gatherRows(parts)
		items := make([][]query.PartialItem, len(st.window.Aggs))
		for a := range items {
			items[a] = make([]query.PartialItem, len(entries))
		}
		for i, pr := range entries {
			if len(pr.Items) != len(items) {
				return nil, fmt.Errorf("tuple %d carries %d aggregate items, want %d", pr.Ord, len(pr.Items), len(items))
			}
			for a, it := range pr.Items {
				items[a][i] = it.Item()
			}
		}
		tuples, err := query.WindowPartials(*st.window, items)
		if err != nil {
			return nil, err
		}
		return runMergedPlan(tuples, st.groupBy, st.topK)

	case st.groupBy != nil:
		lists := make([][]*query.GroupPartial, len(parts))
		for p, part := range parts {
			lists[p] = make([]*query.GroupPartial, len(part.Groups))
			for i, g := range part.Groups {
				gp, err := g.GroupPartial()
				if err != nil {
					return nil, fmt.Errorf("instance %q group %d: %v", part.UDF, i, err)
				}
				lists[p][i] = gp
			}
		}
		merged, err := query.MergeGroupPartials(lists...)
		if err != nil {
			return nil, err
		}
		tuples, err := query.FinishGroupPartials(*st.groupBy, merged)
		if err != nil {
			return nil, err
		}
		return runMergedPlan(tuples, nil, st.topK)

	case st.topK != nil:
		entries := gatherRows(parts)
		keys := make([]query.RankKey, len(entries))
		for i, pr := range entries {
			if pr.Rank == nil {
				return nil, fmt.Errorf("tuple %d carries no rank key", pr.Ord)
			}
			keys[i] = pr.Rank.Key(pr.Ord)
		}
		rankAttr := st.topK.RankAttr()
		members := query.MergeRankKeys(keys, st.topK.K)
		rows := make([][]wire.QueryValue, 0, len(members))
		for _, m := range members {
			row := entries[m.Idx].Row
			if row == nil {
				// partials prunes a row only when it is certainly outside
				// the global top k; a pruned possible member means the
				// invariant broke.
				return nil, fmt.Errorf("tuple %d is a possible top-%d member but its partials pruned the row", entries[m.Idx].Ord, st.topK.K)
			}
			rows = append(rows, withRank(row, rankAttr, m.Rank))
		}
		return rows, nil

	default:
		entries := gatherRows(parts)
		rows := make([][]wire.QueryValue, len(entries))
		for i, pr := range entries {
			if pr.Row == nil {
				return nil, fmt.Errorf("tuple %d carries no row payload", pr.Ord)
			}
			rows[i] = pr.Row
		}
		return rows, nil
	}
}

// gatherRows pools every instance's surviving rows back into global
// ordinal order — the post-drop order of the union relation's stream.
func gatherRows(parts []*wire.QueryPartials) []wire.PartialRow {
	var entries []wire.PartialRow
	for _, p := range parts {
		entries = append(entries, p.Rows...)
	}
	sort.Slice(entries, func(i, k int) bool { return entries[i].Ord < entries[k].Ord })
	return entries
}

// runMergedPlan applies the plan's remaining stages to the merged
// first-stage output and encodes the answer tuples. Stage outputs carry
// only self-contained values, so wire.EncodeValue covers every attribute.
// Merged arithmetic over hostile (finite) partials can overflow, so a
// non-finite answer value is an error rather than an unencodable answer.
func runMergedPlan(tuples []*query.Tuple, gbspec *query.GroupBySpec, tkspec *query.RankSpec) ([][]wire.QueryValue, error) {
	var it query.Iterator = query.NewScan(tuples)
	if gbspec != nil {
		it = query.NewGroupBy(it, *gbspec)
	}
	if tkspec != nil {
		it = query.NewTopK(it, *tkspec)
	}
	out, err := query.Drain(it)
	if err != nil {
		return nil, err
	}
	rows := make([][]wire.QueryValue, len(out))
	for i, t := range out {
		row := make([]wire.QueryValue, 0, t.Len())
		for _, name := range t.Names() {
			v := t.MustGet(name)
			if !finite(v.F) || !finite(v.B.Lo) || !finite(v.B.Hi) {
				return nil, fmt.Errorf("answer %d attribute %q is not finite", i, name)
			}
			qv, err := wire.EncodeValue(name, v)
			if err != nil {
				return nil, err
			}
			row = append(row, qv)
		}
		rows[i] = row
	}
	return rows, nil
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// withRank appends the merged global rank to an instance-encoded row with
// the same replace-or-append semantics as Tuple.With on the serial path.
func withRank(row []wire.QueryValue, rankAttr string, rank query.Bounded) []wire.QueryValue {
	b := wire.BoundedOf(rank)
	qv := wire.QueryValue{Name: rankAttr, Kind: query.KindBounded.String(), Bounded: &b}
	for i := range row {
		if row[i].Name == rankAttr {
			row[i] = qv
			return row
		}
	}
	return append(row, qv)
}

// partials runs one instance's sub-plan on frozen clones and returns its
// mergeable partial state (see wire.QueryPartials), stamped with the model
// sequence it was computed at. Any instance this shard hosts, as owner or
// replica, can answer.
func (s *Server) partials(ctx context.Context, req *wire.QueryPartialsRequest) (*wire.QueryPartials, error) {
	e, ok := s.reg.Get(req.UDF)
	if !ok {
		return nil, Errorf(http.StatusNotFound, wire.CodeNotFound, "no UDF %q registered", req.UDF)
	}
	if len(req.Rows) == 0 {
		return nil, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "partials request needs at least one row")
	}
	if len(req.Rows) > wire.MaxQueryRows {
		return nil, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "partials request has %d rows, cap is %d", len(req.Rows), wire.MaxQueryRows)
	}
	st, err := stagesOf(req.Predicate, req.Window, req.GroupBy, req.TopK)
	if err != nil {
		return nil, err
	}
	stageCount := 0
	for _, set := range []bool{st.window != nil, st.groupBy != nil, st.topK != nil} {
		if set {
			stageCount++
		}
	}
	if stageCount > 1 {
		return nil, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "partials request carries %d stages, want at most one (later stages run on the merged state)", stageCount)
	}
	seq := e.Seq()
	if seq < req.MinSeq {
		return nil, Errorf(http.StatusConflict, wire.CodeModelCold, "UDF %q at model seq %d, request requires %d (replica catching up)",
			req.UDF, seq, req.MinSeq)
	}
	dim := e.def.entry.Dim
	slots, ords, err := partialSlots(req.Rows, dim, e.spec.Name)
	if err != nil {
		return nil, err
	}

	// One admission token covers the whole sub-plan: it is a single bounded
	// unit of work (≤ MaxQueryRows evaluations on frozen clones), and
	// per-row tokens could deadlock against the pool's own fan-out.
	if !s.tryAdmit() {
		return nil, Errorf(http.StatusTooManyRequests, wire.CodeOverCapacity, "at capacity (%d tuples in flight)", cap(s.inflight))
	}
	defer s.release()
	pool, release, err := e.frozenPool(ctx, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	defer release()

	// Each row's RNG stream comes from its global ordinal, so this instance
	// evaluates its subset exactly as the whole union relation would. A
	// worker evaluates a row on its clone's borrowed output and has the
	// stage take what it folds from the row's view; the stage folds the
	// rows in ordinal order.
	resp := &wire.QueryPartials{UDF: req.UDF, ModelSeq: seq}
	stage, foldErr := partialStageOf(st, e.cfg.Eps, resp)
	names := append(append([]string{"id"}, wire.AttrNames(dim)...), "g", "y")
	views := make(chan *rowView, pool.Workers())
	for range pool.Workers() {
		views <- &rowView{pred: st.pred, take: stage.take, t: query.MustTuple(names, make([]query.Value, len(names)))}
	}
	pe := exec.Map(pool, &slotIter{slots: slots}, "y", func(eng query.Engine, sl *partialSlot, rng *rand.Rand) (*partialSlot, error) {
		v := <-views
		defer func() { views <- v }()
		return v.eval(eng, sl, rng)
	}, exec.Options{Ctx: ctx, Seed: req.Seed, Ords: ords})
	defer pe.Close()
	for {
		sl, err := pe.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		// The first stage error in ordinal order is the request's, unless a
		// later row fails to evaluate.
		if foldErr == nil {
			if foldErr = sl.err; foldErr == nil {
				stage.fold(sl)
			}
		}
	}
	e.served.Add(int64(len(req.Rows)))
	if foldErr != nil {
		return nil, foldErr
	}
	resp.Dropped = pe.Dropped
	if stage.finish != nil {
		if err := stage.finish(); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// partialStage is a sub-plan stage's part in a partials request: take
// computes, in a worker, what the stage folds from a surviving row's view;
// fold folds it into the response in ordinal order; finish, when set,
// completes the response after the last row.
type partialStage struct {
	take   func(v *rowView, sl *partialSlot) error
	fold   func(sl *partialSlot)
	finish func() error
}

// partialStageOf picks the stage's take, fold and finish once per request,
// writing into resp. Its error is the stage's own (a group-by spec the
// fold refuses), which an evaluation error anywhere in the sub-plan
// overrides, as a row's stage error is.
func partialStageOf(st stages, eps float64, resp *wire.QueryPartials) (partialStage, error) {
	encode := func(v *rowView, sl *partialSlot) (err error) {
		if sl.row, err = encodeQueryTuple(v.t, eps); err != nil {
			return Errorf(http.StatusInternalServerError, wire.CodeInternal, "encode tuple %d: %v", sl.ord, err)
		}
		return nil
	}
	emit := func(sl *partialSlot) { resp.Rows = append(resp.Rows, wire.PartialRow{Ord: sl.ord, Row: sl.row}) }
	switch {
	case st.window != nil:
		var items []wire.AggItemJSON // every row's items, cut from one growing array
		take := func(v *rowView, sl *partialSlot) error {
			start := len(v.items)
			for _, agg := range st.window.Aggs {
				it, err := query.PartialItemOf(v.t, agg, sl.ord)
				if err != nil {
					return fmt.Errorf("window item for tuple %d: %w", sl.ord, err)
				}
				v.items = append(v.items, it)
			}
			sl.items = v.items[start:]
			return nil
		}
		return partialStage{take: take, fold: func(sl *partialSlot) {
			start := len(items)
			for _, it := range sl.items {
				items = append(items, wire.ItemOf(it))
			}
			resp.Rows = append(resp.Rows, wire.PartialRow{Ord: sl.ord, Items: items[start:]})
		}}, nil
	case st.groupBy != nil:
		fold, err := query.NewGroupFold(*st.groupBy)
		take := func(v *rowView, sl *partialSlot) (err error) {
			k, n, m := len(v.key), len(v.vals), len(v.items)
			if v.key, v.items, err = st.groupBy.KeyAndItems(v.t, sl.ord, v.key, v.items); err != nil {
				return fmt.Errorf("query: group-by: %w", err)
			}
			v.vals = st.groupBy.KeyVals(v.t, v.vals)
			sl.key, sl.vals, sl.items = v.key[k:], v.vals[n:], v.items[m:]
			return nil
		}
		finish := func() error {
			for _, gp := range fold.Groups() {
				g, err := wire.GroupPartialOf(gp)
				if err != nil {
					return Errorf(http.StatusInternalServerError, wire.CodeInternal, "%v", err)
				}
				resp.Groups = append(resp.Groups, g)
			}
			return nil
		}
		return partialStage{take: take, fold: func(sl *partialSlot) { copy(fold.Fold(sl.key, sl.items, sl.ord), sl.vals) }, finish: finish}, err
	case st.topK != nil:
		var keys []query.RankKey
		take := func(v *rowView, sl *partialSlot) (err error) {
			if sl.rank, err = query.RankKeyOf(v.t, *st.topK, sl.ord); err != nil {
				return fmt.Errorf("rank key for tuple %d: %w", sl.ord, err)
			}
			return encode(v, sl)
		}
		// Prune answer payloads the merge cannot use: a tuple already beaten
		// by k certainly-existing local rivals is certainly outside the
		// global top k too (rivals only accumulate across instances), so
		// only its rank key travels.
		finish := func() error {
			certAbove := query.CertAbove(keys)
			ranks := make([]wire.RankKeyJSON, len(keys))
			for i := range resp.Rows {
				ranks[i] = wire.RankKeyOf(keys[i])
				resp.Rows[i].Rank = &ranks[i]
				if st.topK.K > 0 && certAbove[i] >= st.topK.K {
					resp.Rows[i].Row = nil
				}
			}
			return nil
		}
		return partialStage{take: take, fold: func(sl *partialSlot) { keys = append(keys, sl.rank); emit(sl) }, finish: finish}, nil
	}
	return partialStage{take: encode, fold: emit}, nil
}

// partialSlots validates a partials request's rows up front, with the
// request's 400 refusals, into one slot per row, and returns the rows'
// global ordinals. The rows' input distributions are cut from one array
// and point into one typed array per family.
func partialSlots(rows []wire.PartialRowSpec, dim int, udf string) ([]partialSlot, []int64, error) {
	slots := make([]partialSlot, len(rows))
	ords := make([]int64, len(rows))
	comps := make([]dist.Dist, 0, len(rows)*dim)
	dists := new(wire.Dists)
	for i := range rows {
		dists.Reserve(rows[i].Input)
	}
	for i, row := range rows {
		if i > 0 && row.Ord <= ords[i-1] {
			return nil, nil, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "row %d: ordinal %d not above predecessor %d", i, row.Ord, ords[i-1])
		}
		if len(row.Input) != dim {
			return nil, nil, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "row %d has %d attributes, UDF %q wants %d",
				i, len(row.Input), udf, dim)
		}
		var err error
		if comps, err = row.Input.AppendDists(comps, dists); err != nil {
			return nil, nil, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "row %d: %v", i, err)
		}
		slots[i] = partialSlot{ord: row.Ord, group: row.Group, comps: comps[i*dim:]}
		ords[i] = row.Ord
	}
	return slots, ords, nil
}

// partialSlot is one row of a partials request: its ordinal, group and
// input distributions, what a worker took from its evaluation for the
// stage (window items; group key, key values and items; rank key and
// encoded row; or the encoded row alone), and the row's stage error.
type partialSlot struct {
	ord   int64
	group string
	comps []dist.Dist
	items []query.PartialItem
	key   []byte
	vals  []query.Value
	rank  query.RankKey
	row   []wire.QueryValue
	err   error
}

// slotIter feeds a request's slots to the executor in row order.
type slotIter struct {
	slots []partialSlot
	next  int
}

func (it *slotIter) Next() (*partialSlot, error) {
	if it.next == len(it.slots) {
		return nil, io.EOF
	}
	it.next++
	return &it.slots[it.next-1], nil
}

// rowView is one worker's scratch for a partials request: the input vector
// it evaluates, the view of a truncated output support, the row view — the
// tuple (id, x0…, g, y) a row would be on the serial plan, refilled in
// place for every row — and the append-only arrays the stage cuts the
// rows' group keys, key values and items from.
type rowView struct {
	pred  *mc.Predicate
	take  func(*rowView, *partialSlot) error
	vec   dist.Independent
	trunc ecdf.ECDF
	t     *query.Tuple
	key   []byte
	vals  []query.Value
	items []query.PartialItem
}

// eval evaluates one row on the worker's engine and, while the engine's
// borrowed output is valid, refills the row view and takes the stage's
// part of it. A row the §5.5 filter drops returns nil.
func (v *rowView) eval(eng query.Engine, sl *partialSlot, rng *rand.Rand) (*partialSlot, error) {
	v.vec.SetComponents(sl.comps)
	out, err := query.Borrowed(eng, &v.vec, rng)
	if err != nil {
		return nil, err
	}
	y, ok := query.ResultValue(out, v.pred, &v.trunc)
	if !ok {
		return nil, nil
	}
	v.t.Set(0, query.Int(sl.ord))
	for i, d := range sl.comps {
		v.t.Set(1+i, query.Uncertain(d))
	}
	v.t.Set(len(sl.comps)+1, query.Str(sl.group))
	v.t.Set(len(sl.comps)+2, y)
	sl.err = v.take(v, sl)
	return sl, nil
}

// encodeQueryTuple flattens one answer tuple into ordered wire values.
func encodeQueryTuple(t *query.Tuple, eps float64) ([]wire.QueryValue, error) {
	row := make([]wire.QueryValue, 0, t.Len())
	for _, name := range t.Names() {
		v := t.MustGet(name)
		if v.Kind == query.KindResult {
			res := resultForValue(v, eps)
			tep := v.TEP
			row = append(row, wire.QueryValue{Name: name, Kind: v.Kind.String(), Result: &res, TEP: &tep})
			continue
		}
		qv, err := wire.EncodeValue(name, v)
		if err != nil {
			return nil, err
		}
		row = append(row, qv)
	}
	return row, nil
}

// resultForValue is resultOf over a query result value: the engine metadata
// comes from Value.Out, but the distribution summarized is Value.R — the
// predicate-truncated one the relational layer carries — not the raw engine
// output.
func resultForValue(v query.Value, eps float64) EvalResult {
	var meta core.Output
	if v.Out != nil {
		meta = *v.Out
	}
	meta.Dist = v.R
	meta.Envelope = nil
	return resultOf(0, &meta, eps)
}
