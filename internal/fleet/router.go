package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"olgapro/client"
	"olgapro/internal/server"
	"olgapro/internal/server/wire"
)

// Config parameterizes a Router.
type Config struct {
	// Shards are the boot-time fleet members' base URLs — membership epoch
	// 0. Every router and shard must boot with the same list in any
	// order-insensitive sense (placement hashes addresses); afterwards the
	// fleet's membership evolves through POST /v1/fleet/members and the
	// router converges on the highest epoch it sees.
	Shards []string
	// Replicas is the replication factor: each UDF lives on its owner plus
	// Replicas-1 ring successors. Default 2, capped at the fleet size by
	// ring placement itself.
	Replicas int
	// AuthToken, when non-empty, is required from clients (Bearer) and
	// attached to every outbound shard request — one credential for the
	// whole fleet.
	AuthToken string
	// HTTPClient overrides the outbound transport (e.g. fleet TLS trust).
	HTTPClient *http.Client
	// Cooldown is how long a failed shard is deprioritized.
	Cooldown time.Duration
	// GossipInterval is how often the router anti-entropies membership with
	// every shard (adopting higher epochs, re-offering its own to laggards).
	// Default 1s.
	GossipInterval time.Duration
	// Logf, when non-nil, receives one line per notable router event.
	Logf func(format string, args ...any)
}

// Router fans the /v1 surface across a fleet of olgaprod shards: learning
// traffic (registration, eval/stream with learn, snapshots) routes to the
// owning writer shard; frozen reads fan across the owner's replica set with
// whole-request retry on shard failure — safe precisely because frozen
// responses are a pure function of (model state, request), so a retried
// request on a peer at the same model sequence returns the same bytes.
// During a membership handoff the fan-out also covers the previous epoch's
// replica set, so the old owner keeps serving frozen reads until the new
// placement has caught up.
//
// The router is also the fleet's membership admin: POST /v1/fleet/members
// mints the next epoch (join or leave one shard), adopts it locally — so
// learning traffic re-routes immediately — and broadcasts it to the union
// of the old and new shard sets; a background gossip loop repairs any
// member the broadcast missed.
type Router struct {
	cfg    Config
	view   *MemberView
	health *Health
	mux    *http.ServeMux
	start  time.Time

	clientMu sync.Mutex
	clients  map[string]*client.Client

	adminMu sync.Mutex // serializes epoch minting

	gossipCancel context.CancelFunc
	wg           sync.WaitGroup
}

// NewRouter builds a router over the fleet and starts its gossip loop;
// callers must Close it.
func NewRouter(cfg Config) (*Router, error) {
	view, err := NewMemberView(wire.Membership{Epoch: 0, Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rt := &Router{
		cfg:     cfg,
		view:    view,
		health:  NewHealth(cfg.Cooldown),
		clients: make(map[string]*client.Client, len(cfg.Shards)),
		start:   time.Now(),
	}
	rt.routes()
	ctx, cancel := context.WithCancel(context.Background())
	rt.gossipCancel = cancel
	rt.wg.Add(1)
	go rt.gossip(ctx)
	return rt, nil
}

// Close stops the gossip loop.
func (rt *Router) Close() {
	rt.gossipCancel()
	rt.wg.Wait()
}

// clientFor returns (building on first use) the cached client for a shard.
func (rt *Router) clientFor(addr string) *client.Client {
	rt.clientMu.Lock()
	defer rt.clientMu.Unlock()
	if c, ok := rt.clients[addr]; ok {
		return c
	}
	opts := []client.Option{client.WithRetries(0)} // the router is the retry layer
	if rt.cfg.AuthToken != "" {
		opts = append(opts, client.WithToken(rt.cfg.AuthToken))
	}
	if rt.cfg.HTTPClient != nil {
		opts = append(opts, client.WithHTTPClient(rt.cfg.HTTPClient))
	}
	c := client.New(addr, opts...)
	rt.clients[addr] = c
	return c
}

// gossip is the router's membership anti-entropy loop: every interval it
// asks each member for its membership view, adopts any higher epoch (a
// restarted router reverts to its boot list and must catch up) and
// re-offers its own to any shard running behind (a member the admin
// broadcast missed).
func (rt *Router) gossip(ctx context.Context) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		cur := rt.view.Current()
		for _, addr := range cur.Shards {
			cctx, cancel := context.WithTimeout(ctx, rt.cfg.GossipInterval)
			m, err := rt.clientFor(addr).Membership(cctx)
			cancel()
			if err != nil {
				continue
			}
			switch {
			case m.Epoch > cur.Epoch:
				if changed, err := rt.view.Adopt(m); err == nil && changed {
					rt.cfg.Logf("membership: adopted epoch %d from %s (%d shards)", m.Epoch, addr, len(m.Shards))
				}
				cur = rt.view.Current()
			case m.Epoch < cur.Epoch:
				cctx, cancel := context.WithTimeout(ctx, rt.cfg.GossipInterval)
				rt.clientFor(addr).OfferMembership(cctx, cur)
				cancel()
			}
		}
	}
}

func (rt *Router) routes() {
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/", server.NotFound)
	rt.handle("GET /v1/healthz", rt.handleHealthz)
	rt.handle("GET /v1/stats", rt.handleStats)
	rt.handle("GET /v1/catalog", rt.handleCatalog)
	rt.handle("GET /v1/udfs", rt.handleListUDFs)
	rt.handle("POST /v1/udfs", rt.handleRegister)
	rt.handle("POST /v1/udfs/{name}/eval", rt.handleEval)
	rt.handle("POST /v1/udfs/{name}/stream", rt.handleStream)
	rt.handle("POST /v1/udfs/{name}/snapshot", rt.handleSnapshotOne)
	rt.handle("POST /v1/snapshot", rt.handleSnapshotAll)
	rt.handle("POST /v1/query", rt.handleQuery)
	rt.handle("GET /v1/fleet/members", rt.handleFleetMembersGet)
	rt.handle("POST /v1/fleet/members", rt.handleFleetMembersPost)
}

// handle registers h for pattern behind bearer auth (every route but health
// checks), the shard's check.
func (rt *Router) handle(pattern string, h http.HandlerFunc) {
	if tok := rt.cfg.AuthToken; tok != "" && pattern != "GET /v1/healthz" {
		inner := h
		h = func(w http.ResponseWriter, r *http.Request) {
			if !server.CheckBearer(r, tok) {
				rt.fail(w, http.StatusUnauthorized, wire.CodeUnauthorized, "missing or invalid bearer token")
				return
			}
			inner(w, r)
		}
	}
	rt.mux.HandleFunc(pattern, h)
}

// --- membership admin ---

func (rt *Router) handleFleetMembersGet(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, rt.view.Current())
}

// handleFleetMembersPost mints the next membership epoch: op "join" adds a
// shard, op "leave" removes one. The router adopts the new epoch first —
// learning traffic re-routes to the new placement immediately, which is
// what keeps the handoff race-free (the departing owner stops receiving
// learns before its successor measures catch-up) — then broadcasts it to
// the union of the old and new shard sets, departing shard included, so it
// demotes gracefully.
func (rt *Router) handleFleetMembersPost(w http.ResponseWriter, r *http.Request) {
	var req wire.FleetMembersRequest
	if err := server.DecodeBody(r, "members request", &req); err != nil {
		server.WriteError(w, err)
		return
	}
	if req.Shard == "" {
		rt.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "members request needs a shard address")
		return
	}
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	cur := rt.view.Current()
	member := false
	for _, s := range cur.Shards {
		if s == req.Shard {
			member = true
		}
	}
	var next []string
	switch req.Op {
	case "join":
		if member {
			rt.fail(w, http.StatusConflict, wire.CodeAlreadyExists, "shard %q is already a member", req.Shard)
			return
		}
		next = append(append([]string(nil), cur.Shards...), req.Shard)
	case "leave":
		if !member {
			rt.fail(w, http.StatusNotFound, wire.CodeNotFound, "shard %q is not a member", req.Shard)
			return
		}
		if len(cur.Shards) == 1 {
			rt.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "cannot remove the last shard")
			return
		}
		for _, s := range cur.Shards {
			if s != req.Shard {
				next = append(next, s)
			}
		}
	default:
		rt.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "op must be \"join\" or \"leave\", got %q", req.Op)
		return
	}
	m := wire.Membership{Epoch: cur.Epoch + 1, Shards: next}
	if _, err := rt.view.Adopt(m); err != nil {
		rt.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "adopt: %v", err)
		return
	}
	m = rt.view.Current() // canonical (sorted) shard list
	rt.cfg.Logf("membership: minted epoch %d (%s %s, %d shards)", m.Epoch, req.Op, req.Shard, len(m.Shards))
	// Broadcast to the union of old and new members. Failures are logged,
	// not fatal: the gossip loop and the epoch piggyback on replication
	// lists repair any miss.
	targets := append([]string(nil), m.Shards...)
	if req.Op == "leave" {
		targets = append(targets, req.Shard)
	}
	for _, addr := range targets {
		bctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		_, err := rt.clientFor(addr).OfferMembership(bctx, m)
		cancel()
		if err != nil {
			rt.cfg.Logf("membership: offer epoch %d to %s: %v", m.Epoch, addr, err)
		}
	}
	server.WriteJSON(w, http.StatusOK, m)
}

// Handler returns the router's HTTP handler (bearer auth applied, health
// checks exempt, unknown routes refused with the not_found envelope), which
// routes each request once.
func (rt *Router) Handler() http.Handler { return rt.mux }

// fail writes the structured error envelope.
func (rt *Router) fail(w http.ResponseWriter, status int, code wire.ErrorCode, format string, args ...any) {
	server.WriteError(w, server.Errorf(status, code, format, args...))
}

// failFrom writes the envelope refusalOf makes of a client-side error.
func (rt *Router) failFrom(w http.ResponseWriter, err error) { server.WriteError(w, refusalOf(err)) }

// refusalOf relays a client-side error: a refusal of the router's own
// (a shard answer over the cap) and a decoded shard envelope pass through
// with their status and code; transport failures become 502 unavailable.
func refusalOf(err error) error {
	var se *server.Error
	if errors.As(err, &se) {
		return se
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return &server.Error{Status: ae.Status, Detail: wire.ErrorDetail{
			Code:         ae.Code,
			Message:      ae.Message,
			RetryAfterMS: int64(ae.RetryAfter / time.Millisecond),
		}}
	}
	return server.Errorf(http.StatusBadGateway, wire.CodeUnavailable, "no shard could serve the request: %v", err)
}

// shardResp is one fully-buffered shard response: buffering is what makes
// whole-request retry and byte-identical relay possible.
type shardResp struct {
	status int
	header http.Header
	body   []byte
}

// maxShardResponseBytes caps one buffered shard response. It is the
// request body cap: a 4096-row partials answer is a few megabytes, and a
// frozen stream answer over it is refused whole rather than buffered.
const maxShardResponseBytes = wire.MaxRequestBytes

// forward sends one request to a shard through its client, buffers the
// response, reading at most maxShardResponseBytes+1 bytes of it, and feeds
// the health ledger. A response over the cap is a 413 over_capacity
// refusal; the shard answered, so it is not marked down.
func (rt *Router) forward(ctx context.Context, addr, method, path string, q url.Values, body []byte, ct string) (*shardResp, error) {
	resp, err := rt.clientFor(addr).Do(ctx, method, path, q, body, ct)
	if err != nil {
		rt.health.MarkDown(addr)
		return nil, err
	}
	b, over, err := server.ReadCapped(resp.Body, resp.ContentLength, nil, maxShardResponseBytes)
	resp.Body.Close()
	if over {
		return nil, server.Errorf(http.StatusRequestEntityTooLarge, wire.CodeOverCapacity,
			"shard %s answered over %d bytes (send a smaller request, or stream straight to the shard)", addr, maxShardResponseBytes)
	}
	if err != nil {
		rt.health.MarkDown(addr)
		return nil, err
	}
	rt.health.MarkUp(addr)
	return &shardResp{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// relay writes a buffered shard response to the client verbatim.
func relay(w http.ResponseWriter, sr *shardResp) {
	for _, k := range []string{"Content-Type", "Retry-After", wire.HeaderModelSeq, wire.HeaderSpec} {
		if v := sr.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(sr.status)
	w.Write(sr.body)
}

// retryableEnvelope reports whether a shard's error response means "another
// replica may succeed": the replica hasn't ingested the model yet
// (not_found / model_cold), is shutting down, or is overloaded.
func retryableEnvelope(status int, body []byte) bool {
	if status < 300 {
		return false
	}
	var env wire.ErrorEnvelope
	if json.Unmarshal(body, &env) == nil {
		switch env.Error.Code {
		case wire.CodeNotFound, wire.CodeModelCold, wire.CodeDraining,
			wire.CodeUnavailable, wire.CodeOverCapacity:
			return true
		}
	}
	return status == http.StatusBadGateway || status == http.StatusServiceUnavailable
}

// retryableStream reports whether a complete NDJSON stream response ended
// in a terminal error another replica could avoid.
func retryableStream(body []byte) bool {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if len(last) == 0 {
		return false
	}
	var sr wire.StreamResult
	if json.Unmarshal(last, &sr) != nil || sr.Error == "" {
		return false
	}
	switch sr.ErrorCode {
	case wire.CodeNotFound, wire.CodeModelCold, wire.CodeDraining, wire.CodeUnavailable:
		return true
	}
	return false
}

// replicasFor returns the retry-ordered candidate shards for a frozen read:
// the current epoch's replica set plus, during a handoff window, the
// previous epoch's — the old placement keeps serving frozen reads until the
// new one has caught up, and a replica at the same model sequence returns
// the same bytes regardless of which epoch placed it there.
func (rt *Router) replicasFor(name string) []string {
	cur, prev := rt.view.Rings()
	cand := cur.Replicas(name, rt.cfg.Replicas)
	if prev != nil {
		seen := make(map[string]bool, len(cand))
		for _, a := range cand {
			seen[a] = true
		}
		for _, a := range prev.Replicas(name, rt.cfg.Replicas) {
			if !seen[a] {
				cand = append(cand, a)
			}
		}
	}
	return rt.health.Order(cand)
}

// fanFrozen tries fn against each replica candidate until one returns a
// non-retryable response. Transport failures and retryable envelopes move
// on to the next candidate; the last response (or error) is surfaced when
// every candidate fails. An answer over the response cap ends the fan:
// a frozen answer is a function of the request, so every replica's is as
// large.
func (rt *Router) fanFrozen(name string, fn func(addr string) (*shardResp, bool, error)) (*shardResp, error) {
	var lastResp *shardResp
	var lastErr error
	for _, addr := range rt.replicasFor(name) {
		sr, retryable, err := fn(addr)
		var se *server.Error
		if errors.As(err, &se) {
			return nil, err
		}
		if err != nil {
			rt.cfg.Logf("shard %s failed, trying next replica: %v", addr, err)
			lastErr = err
			continue
		}
		lastResp = sr
		if !retryable {
			return sr, nil
		}
		rt.cfg.Logf("shard %s answered retryable %d, trying next replica", addr, sr.status)
	}
	if lastResp != nil {
		return lastResp, nil
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: no replica candidates")
	}
	return nil, lastErr
}

// --- read endpoints ---

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := rt.view.Current().Shards
	resp := wire.HealthResponse{
		Status:    "degraded",
		UptimeSec: time.Since(rt.start).Seconds(),
		Shards:    make([]wire.ShardHealth, len(shards)),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, addr := range shards {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), time.Second)
			defer cancel()
			h, err := rt.clientFor(addr).Healthz(ctx)
			up := err == nil && h.Status == "ok"
			mu.Lock()
			resp.Shards[i] = wire.ShardHealth{Addr: addr, Up: up}
			if up {
				resp.Status = "ok"
				resp.InFlight += h.InFlight
				resp.Capacity += h.Capacity
				if h.UDFs > resp.UDFs {
					resp.UDFs = h.UDFs
				}
			}
			mu.Unlock()
		}(i, addr)
	}
	wg.Wait()
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleCatalog(w http.ResponseWriter, r *http.Request) {
	for _, addr := range rt.health.Order(rt.view.Ring().Addrs()) {
		sr, err := rt.forward(r.Context(), addr, http.MethodGet, "/v1/catalog", nil, nil, "")
		if err == nil {
			relay(w, sr)
			return
		}
	}
	rt.fail(w, http.StatusBadGateway, wire.CodeUnavailable, "no shard reachable for catalog")
}

func (rt *Router) handleListUDFs(w http.ResponseWriter, r *http.Request) {
	merged := make(map[string]wire.UDFInfo)
	if !rt.eachShard(w, rt.view.Ring().Addrs(), func(addr string, c *client.Client) error {
		list, err := c.ListUDFs(r.Context())
		if err != nil {
			return err
		}
		for _, info := range list.UDFs {
			// The owner's record wins: it carries the freshest model
			// sequence and the authoritative training-point count.
			if prev, ok := merged[info.Name]; !ok || (prev.Replica && !info.Replica) {
				merged[info.Name] = info
			}
		}
		return nil
	}) {
		return
	}
	resp := wire.UDFList{UDFs: make([]wire.UDFInfo, 0, len(merged))}
	for _, info := range merged {
		resp.UDFs = append(resp.UDFs, info)
	}
	sortUDFInfos(resp.UDFs)
	server.WriteJSON(w, http.StatusOK, resp)
}

// eachShard calls fn with the client of every shard in addrs, marking each
// shard up or down in the health ledger by whether fn failed. When no
// shard answered it writes the 502 unavailable refusal and returns false.
func (rt *Router) eachShard(w http.ResponseWriter, addrs []string, fn func(addr string, c *client.Client) error) bool {
	reached := false
	for _, addr := range addrs {
		if err := fn(addr, rt.clientFor(addr)); err != nil {
			rt.health.MarkDown(addr)
			continue
		}
		rt.health.MarkUp(addr)
		reached = true
	}
	if !reached {
		rt.fail(w, http.StatusBadGateway, wire.CodeUnavailable, "no shard reachable")
	}
	return reached
}

func sortUDFInfos(infos []wire.UDFInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].Name < infos[j-1].Name; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	// Fleet-wide accounting: the same UDF serves traffic on its owner and
	// every replica, so per-name counters are summed across shards and the
	// savings totals recomputed from the merged view.
	type acc struct {
		st    wire.UDFStats
		owner bool
	}
	merged := make(map[string]*acc)
	var order []string
	ring := rt.view.Ring()
	if !rt.eachShard(w, ring.Addrs(), func(addr string, c *client.Client) error {
		st, err := c.Stats(r.Context())
		if err != nil {
			return err
		}
		for _, s := range st.UDFs {
			isOwner := ring.Owner(s.Name) == addr
			a, ok := merged[s.Name]
			if !ok {
				merged[s.Name] = &acc{st: s, owner: isOwner}
				order = append(order, s.Name)
				continue
			}
			if isOwner && !a.owner {
				// Identity fields and model-side counters come from the
				// owner; traffic counters stay summed across shards.
				inputs, calls := a.st.Inputs, a.st.UDFCalls
				a.st = s
				a.st.Inputs += inputs
				a.st.UDFCalls += calls
				a.owner = true
			} else {
				a.st.Inputs += s.Inputs
				a.st.UDFCalls += s.UDFCalls
			}
		}
		return nil
	}) {
		return
	}
	resp := wire.StatsResponse{}
	var totalMC int64
	for _, name := range order {
		s := merged[name].st
		s.MCEquivalentCalls = s.Inputs * int64(s.MCSamplesPerInput)
		s.SavedCalls = s.MCEquivalentCalls - int64(s.UDFCalls)
		if s.MCEquivalentCalls > 0 {
			s.SavingsRatio = float64(s.SavedCalls) / float64(s.MCEquivalentCalls)
		}
		resp.TotalSavedCalls += s.SavedCalls
		totalMC += s.MCEquivalentCalls
		resp.UDFs = append(resp.UDFs, s)
	}
	if totalMC > 0 {
		resp.TotalSavingsRatio = float64(resp.TotalSavedCalls) / float64(totalMC)
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// --- write endpoints (owner-routed) ---

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(r, nil)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	var req wire.RegisterRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "bad register request: %v", err)
		return
	}
	name := req.Name
	if name == "" {
		name = server.DefaultInstanceName(req.UDF)
	}
	if owner, sr := rt.relayOwner(w, r, name, "/v1/udfs", nil, body, "application/json"); sr != nil {
		rt.cfg.Logf("register %q → owner %s (%d)", name, owner, sr.status)
	}
}

// relayOwner forwards a POST to name's owner and relays its answer, or
// writes the refusal the forward failed with (sr is then nil).
func (rt *Router) relayOwner(w http.ResponseWriter, r *http.Request, name, path string, q url.Values, body []byte, ct string) (owner string, sr *shardResp) {
	owner = rt.view.Ring().Owner(name)
	sr, err := rt.forward(r.Context(), owner, http.MethodPost, path, q, body, ct)
	if err != nil {
		rt.failFrom(w, err)
		return owner, nil
	}
	relay(w, sr)
	return owner, sr
}

func (rt *Router) handleSnapshotOne(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.relayOwner(w, r, name, "/v1/udfs/"+url.PathEscape(name)+"/snapshot", nil, nil, "")
}

func (rt *Router) handleSnapshotAll(w http.ResponseWriter, r *http.Request) {
	var resp wire.SnapshotResponse
	if !rt.eachShard(w, rt.view.Ring().Addrs(), func(addr string, c *client.Client) error {
		snaps, err := c.SnapshotAll(r.Context())
		if err != nil {
			return err
		}
		resp.Snapshots = append(resp.Snapshots, snaps.Snapshots...)
		return nil
	}) {
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// --- evaluation ---

func (rt *Router) handleEval(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := server.ReadBody(r, nil)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	var req wire.EvalRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.fail(w, http.StatusBadRequest, wire.CodeBadSpec, "bad eval request: %v", err)
		return
	}
	path := "/v1/udfs/" + url.PathEscape(name) + "/eval"
	q := forwardableQuery(r)
	if req.Learn == nil || *req.Learn {
		rt.relayOwner(w, r, name, path, q, body, "application/json")
		return
	}
	sr, err := rt.fanFrozen(name, func(addr string) (*shardResp, bool, error) {
		sr, err := rt.forward(r.Context(), addr, http.MethodPost, path, q, body, "application/json")
		if err != nil {
			return nil, false, err
		}
		return sr, retryableEnvelope(sr.status, sr.body), nil
	})
	if err != nil {
		rt.failFrom(w, err)
		return
	}
	relay(w, sr)
}

// forwardableQuery passes through the request-shaping parameters a client
// may set (seed, learn, timeout_ms); it is nil when the request has no
// query string.
func forwardableQuery(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	q := url.Values{}
	all := r.URL.Query()
	for _, k := range []string{"seed", "learn", "timeout_ms"} {
		if v := all.Get(k); v != "" {
			q.Set(k, v)
		}
	}
	return q
}

func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := server.ReadBody(r, nil)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	q := forwardableQuery(r)
	path := "/v1/udfs/" + url.PathEscape(name) + "/stream"
	if q.Get("learn") != "false" {
		// Learning stream: single writer, no retry (a replay would re-learn
		// the prefix), response streamed through incrementally.
		owner := rt.view.Ring().Owner(name)
		rc, err := rt.clientFor(owner).OpenStream(r.Context(), name, q, body)
		if err != nil {
			rt.health.MarkDown(owner)
			rt.failFrom(w, err)
			return
		}
		defer rc.Close()
		rt.health.MarkUp(owner)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fw := flushWriter{w: w}
		io.Copy(fw, rc)
		return
	}
	// Frozen stream: buffer the whole exchange so a shard dying mid-stream
	// retries the full request on the next replica — the response is a pure
	// function of (model seq, request bytes), so the replay is byte-
	// identical and the client never sees a torn stream.
	sr, err := rt.fanFrozen(name, func(addr string) (*shardResp, bool, error) {
		sr, err := rt.forward(r.Context(), addr, http.MethodPost, path, q, body, "application/x-ndjson")
		if err != nil {
			return nil, false, err
		}
		if sr.status >= 300 {
			return sr, retryableEnvelope(sr.status, sr.body), nil
		}
		return sr, retryableStream(sr.body), nil
	})
	if err != nil {
		rt.failFrom(w, err)
		return
	}
	relay(w, sr)
}

// flushWriter flushes after every write so learn-stream results reach the
// client as they are produced, not when the shard closes the stream.
type flushWriter struct{ w http.ResponseWriter }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// handleQuery answers a bounded query through server.ServeQuery: each UDF
// instance's sub-plan goes to a frozen replica as POST /v1/query/partials,
// retried across the replica set like any frozen read.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := forwardableQuery(r)
	server.ServeQuery(w, r, func(ctx context.Context, sub *wire.QueryPartialsRequest) (*wire.QueryPartials, error) {
		body, err := json.Marshal(sub)
		if err != nil {
			return nil, fmt.Errorf("encode partials request: %w", err)
		}
		sr, err := rt.fanFrozen(sub.UDF, func(addr string) (*shardResp, bool, error) {
			sr, err := rt.forward(ctx, addr, http.MethodPost, "/v1/query/partials", q, body, "application/json")
			if err != nil {
				return nil, false, err
			}
			return sr, retryableEnvelope(sr.status, sr.body), nil
		})
		if err != nil {
			return nil, refusalOf(err)
		}
		if sr.status != http.StatusOK {
			var env wire.ErrorEnvelope
			if json.Unmarshal(sr.body, &env) != nil || env.Error.Code == "" {
				return nil, refusalOf(fmt.Errorf("shard answered %d without an error envelope", sr.status))
			}
			return nil, &server.Error{Status: sr.status, Detail: env.Error}
		}
		var qp wire.QueryPartials
		if err := json.Unmarshal(sr.body, &qp); err != nil {
			return nil, refusalOf(fmt.Errorf("shard partials for %q: %v", sub.UDF, err))
		}
		return &qp, nil
	})
}
