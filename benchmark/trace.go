package main

// Span recording from the benchmark's own side of every layer boundary: the
// benchmark's client calls, the HTTP transports it hands to its clients and
// to the fleet router, and the handlers it mounts. Nothing inside the
// program is instrumented. A span's parent travels as a context value
// inside one process hop and as a request header across a connection, so
// parents are exact even when requests overlap.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the caller's span id to the handler wrapper across a
// loopback connection. It is only sent while a trace is recording.
const spanHeader = "Olgabench-Parent"

// Span names, one per layer boundary.
const (
	spanClient    = "client"           // benchmark call into the public client
	spanHTTP      = "client.http"      // client transport round trip + body
	spanHandler   = "server.handler"   // mounted shard handler
	spanRouter    = "router.handler"   // mounted router handler
	spanShardCall = "fleet.shard_call" // router transport to one shard
)

type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory while on is set. A nil *tracer records
// nothing, which is how untraced runs call it.
type tracer struct {
	workload string
	base     time.Time
	on       atomic.Bool
	ids      atomic.Int64

	mu        sync.Mutex
	spans     []span
	tags      map[int64]int      // client span id → which request body it sent
	exchanges map[int64]exchange // capturing transport span id → bodies
}

// exchange is one request and response body seen by a capturing transport.
type exchange struct{ req, resp []byte }

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now(), tags: map[int64]int{}, exchanges: map[int64]exchange{}}
}

type spanKey struct{}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

func (t *tracer) record(name string, id, parent, start int64) {
	s := span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs f inside a client span.
func (t *tracer) call(ctx context.Context, f func(context.Context) error) error {
	if !t.recording() {
		return f(ctx)
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	id, start := t.ids.Add(1), t.now()
	err := f(context.WithValue(ctx, spanKey{}, id))
	t.record(spanClient, id, parent, start)
	return err
}

// tag records which request body the client span in ctx sent.
func (t *tracer) tag(ctx context.Context, body int) {
	if !t.recording() {
		return
	}
	if id, ok := ctx.Value(spanKey{}).(int64); ok {
		t.mu.Lock()
		t.tags[id] = body
		t.mu.Unlock()
	}
}

// handler wraps a mounted handler in a span whose parent is the caller's
// transport span.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.recording() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id, start := t.ids.Add(1), t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.record(name, id, parent, start)
	})
}

// transport wraps base so every round trip, up to the end of its response
// body, is a span. With capture set it also keeps both bodies.
func (t *tracer) transport(name string, base http.RoundTripper, capture bool) http.RoundTripper {
	return &tracingTransport{t: t, name: name, base: base, capture: capture}
}

type tracingTransport struct {
	t       *tracer
	name    string
	base    http.RoundTripper
	capture bool
}

func (tt *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tt.t.recording() {
		return tt.base.RoundTrip(r)
	}
	parent, _ := r.Context().Value(spanKey{}).(int64)
	id, start := tt.t.ids.Add(1), tt.t.now()
	var reqBody []byte
	if tt.capture && r.GetBody != nil {
		rd, err := r.GetBody()
		if err != nil {
			return nil, err
		}
		reqBody, err = io.ReadAll(rd)
		if err != nil {
			return nil, err
		}
	}
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.record(tt.name, id, parent, start)
		return nil, err
	}
	b := &spanBody{ReadCloser: resp.Body}
	if tt.capture {
		b.copy = new(bytes.Buffer)
	}
	b.end = func() {
		tt.t.record(tt.name, id, parent, start)
		if b.copy != nil {
			tt.t.mu.Lock()
			tt.t.exchanges[id] = exchange{req: reqBody, resp: b.copy.Bytes()}
			tt.t.mu.Unlock()
		}
	}
	resp.Body = b
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first, keeping a
// copy of what was read when copy is set.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
	copy *bytes.Buffer
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.copy != nil {
		b.copy.Write(p[:n])
	}
	if err == io.EOF {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans to path as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqTrace is one client request rebuilt from its spans.
type reqTrace struct {
	id      int64   // client span id
	rtt     float64 // client span
	outer   float64 // outermost handler span (router or shard)
	calls   []span  // router → shard round trips
	shards  []span  // shard handler spans under those calls
	hasTree bool
}

// requests groups spans into per-request trees rooted at client spans.
func requests(spans []span) []reqTrace {
	kids := make(map[int64][]span, len(spans))
	var roots []span
	for _, s := range spans {
		if s.Name == spanClient && s.Parent == 0 {
			roots = append(roots, s)
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	out := make([]reqTrace, 0, len(roots))
	for _, root := range roots {
		rt := reqTrace{id: root.ID, rtt: root.ms()}
		for _, h := range kids[root.ID] {
			if h.Name != spanHTTP {
				continue
			}
			for _, srv := range kids[h.ID] {
				rt.outer, rt.hasTree = srv.ms(), true
				if srv.Name != spanRouter {
					rt.shards = append(rt.shards, srv)
					continue
				}
				for _, c := range kids[srv.ID] {
					if c.Name != spanShardCall {
						continue
					}
					rt.calls = append(rt.calls, c)
					rt.shards = append(rt.shards, kids[c.ID]...)
				}
			}
		}
		out = append(out, rt)
	}
	return out
}

// unionMs is the wall time covered by the union of the spans.
func unionMs(spans []span) float64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total, end int64
	for i, x := range s {
		if i == 0 || x.Start > end {
			total += x.End - x.Start
			end = x.End
			continue
		}
		if x.End > end {
			total += x.End - end
			end = x.End
		}
	}
	return float64(total) / 1e6
}
