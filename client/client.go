// Package client is the Go client for the olgaprod /v1 HTTP API — the
// single HTTP consumer shared by the fleet router (cmd/olgarouter), the
// end-to-end tests, and the benchmark driver, so the wire contract is
// exercised through one surface instead of ad-hoc request construction.
//
// Every method takes a context (deadlines and cancellation propagate to the
// request), decodes the server's structured error envelope into a typed
// *APIError, and transparently retries admission-control refusals (HTTP
// 429) honoring the envelope's retry_after_ms hint.
package client

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
	"strconv"
	"strings"
	"time"

	"olgapro/internal/server/wire"
)

// APIError is a decoded /v1 error envelope plus its HTTP status. Dispatch
// on Code (stable, machine-readable) rather than Message.
type APIError struct {
	Status  int
	Code    wire.ErrorCode
	Message string
	// RetryAfter is the server's backoff hint (from retry_after_ms or the
	// Retry-After header); zero when the server sent none.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("olgaprod: %s (HTTP %d, code %s)", e.Message, e.Status, e.Code)
}

// IsCode reports whether err is an *APIError carrying the given code.
func IsCode(err error, code wire.ErrorCode) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// Option configures a Client.
type Option func(*Client)

// WithToken sets the bearer token sent as "Authorization: Bearer <token>".
func WithToken(token string) Option { return func(c *Client) { c.token = token } }

// WithHTTPClient substitutes the transport — e.g. one with a TLS config
// trusting the fleet's certificate. The default client has no overall
// timeout (per-request deadlines come from the context), which long-poll
// calls like ReplicationList depend on.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetries caps how many times a 429 is retried (default 3; 0 disables).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// Client talks to one olgaprod shard or olgarouter instance.
type Client struct {
	base    string
	http    *http.Client
	token   string
	retries int
}

// New builds a client for the service at baseURL (e.g. "http://host:9090").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		http:    &http.Client{},
		retries: 3,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the address the client was built for.
func (c *Client) BaseURL() string { return c.base }

// decodeError consumes and closes a non-2xx response body, decoding the
// structured envelope (falling back to the raw body text for non-API
// servers in the request path, e.g. a proxy's plain-text 502).
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	ae := &APIError{Status: resp.StatusCode, Code: wire.CodeInternal}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
		if env.Error.RetryAfterMS > 0 {
			ae.RetryAfter = time.Duration(env.Error.RetryAfterMS) * time.Millisecond
		}
	} else {
		ae.Message = strings.TrimSpace(string(body))
	}
	if ae.RetryAfter == 0 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
	}
	return ae
}

// Do performs one API request with auth and 429-retry applied, returning
// the raw response (the caller owns the body). Status codes ≥ 300 are
// returned as-is — use doJSON for decoded calls; router-style consumers
// forward the response verbatim.
func (c *Client) Do(ctx context.Context, method, path string, q url.Values, body []byte, contentType string) (*http.Response, error) {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if c.token != "" {
			req.Header.Set("Authorization", "Bearer "+c.token)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < c.retries {
			apiErr := decodeError(resp) // closes the body
			wait := time.Second
			var ae *APIError
			if errors.As(apiErr, &ae) && ae.RetryAfter > 0 {
				wait = ae.RetryAfter
			}
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return resp, nil
	}
}

// doJSON performs a JSON round trip: in (when non-nil) is the request body,
// out (when non-nil) receives the decoded response. Non-2xx responses
// return a typed *APIError.
func (c *Client) doJSON(ctx context.Context, method, path string, q url.Values, in, out any) error {
	var body []byte
	contentType := ""
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body, contentType = b, "application/json"
	}
	resp, err := c.Do(ctx, method, path, q, body, contentType)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// --- registry ---

// Register creates a UDF instance (POST /v1/udfs).
func (c *Client) Register(ctx context.Context, req RegisterRequest) (UDFInfo, error) {
	var info UDFInfo
	err := c.doJSON(ctx, http.MethodPost, "/v1/udfs", nil, req, &info)
	return info, err
}

// ListUDFs lists registered instances (GET /v1/udfs).
func (c *Client) ListUDFs(ctx context.Context) (UDFList, error) {
	var list UDFList
	err := c.doJSON(ctx, http.MethodGet, "/v1/udfs", nil, nil, &list)
	return list, err
}

// Catalog lists the built-in UDFs the server can register (GET /v1/catalog).
func (c *Client) Catalog(ctx context.Context) (CatalogResponse, error) {
	var cat CatalogResponse
	err := c.doJSON(ctx, http.MethodGet, "/v1/catalog", nil, nil, &cat)
	return cat, err
}

// Stats returns per-UDF serving statistics (GET /v1/stats).
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var st StatsResponse
	err := c.doJSON(ctx, http.MethodGet, "/v1/stats", nil, nil, &st)
	return st, err
}

// Healthz probes liveness (GET /v1/healthz); never requires auth.
func (c *Client) Healthz(ctx context.Context) (HealthResponse, error) {
	var h HealthResponse
	err := c.doJSON(ctx, http.MethodGet, "/v1/healthz", nil, nil, &h)
	return h, err
}

// --- evaluation ---

// Eval evaluates one input (POST /v1/udfs/{name}/eval).
func (c *Client) Eval(ctx context.Context, name string, req EvalRequest) (EvalResult, error) {
	var res EvalResult
	err := c.doJSON(ctx, http.MethodPost, "/v1/udfs/"+url.PathEscape(name)+"/eval", nil, req, &res)
	return res, err
}

// Query runs one bounded relational query (POST /v1/query). The request is
// any JSON-marshalable value matching the query wire form; the raw response
// bytes are returned so byte-replay consumers can compare them directly.
func (c *Client) Query(ctx context.Context, req any) (json.RawMessage, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(ctx, http.MethodPost, "/v1/query", nil, b, "application/json")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// RunQuery runs one bounded relational query with a typed request and
// response (POST /v1/query). Against a fleet router, rows naming their own
// UDF instance are scattered to the owning shards and the partial bounded
// states merged back into one answer, bit-identical to a single shard
// holding every instance. Use Query when the raw response bytes matter
// (replay comparison).
func (c *Client) RunQuery(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	var resp QueryResponse
	err := c.doJSON(ctx, http.MethodPost, "/v1/query", nil, req, &resp)
	return resp, err
}

// StreamOptions parameterize one NDJSON stream session.
type StreamOptions struct {
	// Frozen serves the stream from frozen clones (?learn=false): responses
	// become a pure, bit-replayable function of (model state, inputs, seed).
	Frozen bool
	// Seed is the base of the per-tuple seed derivation.
	Seed int64
}

func (o StreamOptions) values() url.Values {
	q := url.Values{}
	if o.Frozen {
		q.Set("learn", "false")
	}
	if o.Seed != 0 {
		q.Set("seed", strconv.FormatInt(o.Seed, 10))
	}
	return q
}

// OpenStream starts an NDJSON stream session (POST /v1/udfs/{name}/stream)
// with a caller-built request body and returns the raw response body for
// incremental reading. The body is buffered bytes (not a reader) so a 429
// refusal can be retried whole.
func (c *Client) OpenStream(ctx context.Context, name string, q url.Values, body []byte) (io.ReadCloser, error) {
	resp, err := c.Do(ctx, http.MethodPost, "/v1/udfs/"+url.PathEscape(name)+"/stream", q, body, "application/x-ndjson")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, decodeError(resp)
	}
	return resp.Body, nil
}

// StreamBody builds the NDJSON request body for the given inputs.
func StreamBody(inputs []InputSpec) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, in := range inputs {
		if err := enc.Encode(StreamLine{Input: in}); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// Stream evaluates the inputs as one NDJSON session, returning the parsed
// result lines and the raw response bytes (for bit-replay comparison). A
// terminal in-stream error line is surfaced as a typed *APIError alongside
// the lines that preceded it.
func (c *Client) Stream(ctx context.Context, name string, opts StreamOptions, inputs []InputSpec) ([]StreamResult, []byte, error) {
	body, err := StreamBody(inputs)
	if err != nil {
		return nil, nil, err
	}
	rc, err := c.OpenStream(ctx, name, opts.values(), body)
	if err != nil {
		return nil, nil, err
	}
	defer rc.Close()
	raw, err := io.ReadAll(rc)
	if err != nil {
		return nil, raw, err
	}
	var results []StreamResult
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var sr StreamResult
		if err := json.Unmarshal(line, &sr); err != nil {
			return results, raw, fmt.Errorf("client: bad stream line: %w", err)
		}
		if sr.Error != "" {
			code := sr.ErrorCode
			if code == "" {
				code = wire.CodeInternal
			}
			return results, raw, &APIError{Status: http.StatusOK, Code: code, Message: sr.Error}
		}
		results = append(results, sr)
	}
	return results, raw, sc.Err()
}

// --- snapshots ---

// Snapshot persists one UDF's model to the server's snapshot directory
// (POST /v1/udfs/{name}/snapshot).
func (c *Client) Snapshot(ctx context.Context, name string) (SnapshotInfo, error) {
	var info SnapshotInfo
	err := c.doJSON(ctx, http.MethodPost, "/v1/udfs/"+url.PathEscape(name)+"/snapshot", nil, nil, &info)
	return info, err
}

// SnapshotAll persists every registered UDF (POST /v1/snapshot).
func (c *Client) SnapshotAll(ctx context.Context) (SnapshotResponse, error) {
	var resp SnapshotResponse
	err := c.doJSON(ctx, http.MethodPost, "/v1/snapshot", nil, nil, &resp)
	return resp, err
}

// --- replication ---

// ReplicationList returns the shard's hosted-UDF replication states
// (GET /v1/replication/udfs). since ≥ 0 long-polls: the call blocks until
// the shard's registry version exceeds since, the server-side poll window
// lapses, or ctx fires.
func (c *Client) ReplicationList(ctx context.Context, since int64) (ReplicationList, error) {
	q := url.Values{}
	if since >= 0 {
		q.Set("since_version", strconv.FormatInt(since, 10))
	}
	var list ReplicationList
	err := c.doJSON(ctx, http.MethodGet, "/v1/replication/udfs", q, nil, &list)
	return list, err
}

// Membership returns the shard's current fleet membership view
// (GET /v1/replication/members); fails with code not_replicated outside
// fleet mode.
func (c *Client) Membership(ctx context.Context) (Membership, error) {
	var m Membership
	err := c.doJSON(ctx, http.MethodGet, "/v1/replication/members", nil, nil, &m)
	return m, err
}

// OfferMembership offers a shard a membership epoch
// (POST /v1/replication/members); a strictly higher epoch is adopted.
// Returns the membership the shard holds afterwards.
func (c *Client) OfferMembership(ctx context.Context, m Membership) (Membership, error) {
	var out Membership
	err := c.doJSON(ctx, http.MethodPost, "/v1/replication/members", nil, m, &out)
	return out, err
}

// FleetMembers mutates the fleet's membership through the router's admin
// endpoint (POST /v1/fleet/members, op "join" or "leave"), returning the
// newly minted membership.
func (c *Client) FleetMembers(ctx context.Context, req FleetMembersRequest) (Membership, error) {
	var m Membership
	err := c.doJSON(ctx, http.MethodPost, "/v1/fleet/members", nil, req, &m)
	return m, err
}

// FetchedSnapshot is one pulled model: the raw versioned snapshot bytes
// plus the metadata needed to install it (see wire.HeaderModelSeq/Spec).
type FetchedSnapshot struct {
	Data     []byte
	ModelSeq int64
	Spec     RegisterSpec
}

// FetchSnapshot pulls the named UDF's current model from a shard
// (GET /v1/udfs/{name}/snapshot). minSeq ≥ 0 asks only for state at least
// that new; (nil, nil) means the shard has nothing newer (HTTP 304).
func (c *Client) FetchSnapshot(ctx context.Context, name string, minSeq int64) (*FetchedSnapshot, error) {
	q := url.Values{}
	if minSeq >= 0 {
		q.Set("min_seq", strconv.FormatInt(minSeq, 10))
	}
	resp, err := c.Do(ctx, http.MethodGet, "/v1/udfs/"+url.PathEscape(name)+"/snapshot", q, nil, "")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotModified {
		resp.Body.Close()
		return nil, nil
	}
	if resp.StatusCode >= 300 {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	fs := &FetchedSnapshot{Data: data}
	if v := resp.Header.Get(wire.HeaderModelSeq); v != "" {
		if fs.ModelSeq, err = strconv.ParseInt(v, 10, 64); err != nil {
			return nil, fmt.Errorf("client: bad %s header %q", wire.HeaderModelSeq, v)
		}
	}
	if v := resp.Header.Get(wire.HeaderSpec); v != "" {
		if err := json.Unmarshal([]byte(v), &fs.Spec); err != nil {
			return nil, fmt.Errorf("client: bad %s header: %w", wire.HeaderSpec, err)
		}
	}
	return fs, nil
}
