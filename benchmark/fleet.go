package main

// In-process deployment: real shard servers and a real fleet router, each
// behind its own http.Server on a loopback TCP port, reached only through
// the public client package. Every target gets its own transport capped at
// two connections, the most the benchmark's two sender goroutines need.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"olgapro/client"
	"olgapro/internal/fleet"
	"olgapro/internal/server"
)

// maxConnsPerTarget caps the connections any one transport opens to a host.
const maxConnsPerTarget = 2

// node is one HTTP service listening on a loopback port.
type node struct {
	url  string
	hs   *http.Server
	done chan error
}

func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// close stops accepting, waits for in-flight handlers, and waits for the
// serve goroutine to exit.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		n.hs.Close()
	}
	if err := <-n.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("serve %s: %v", n.url, err)
	}
}

// shard is one olgaprod shard.
type shard struct {
	*node
	srv *server.Server
}

func startShard(workers int, tr *tracer) (*shard, error) {
	srv, err := server.New(server.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.handler(spanHandler, h)
	}
	n, err := serve(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &shard{node: n, srv: srv}, nil
}

func (s *shard) close() {
	s.node.close()
	s.srv.Close()
}

// routerNode is a fleet router over shards, with each UDF on its owner only.
type routerNode struct {
	*node
	rt *fleet.Router
}

func startRouter(shards []string, tr *tracer) (*routerNode, error) {
	hc := &http.Client{Transport: newTransport()}
	if tr != nil {
		hc.Transport = tr.transport(spanShardCall, hc.Transport, true)
	}
	rt, err := fleet.NewRouter(fleet.Config{
		Shards:     shards,
		Replicas:   1,
		HTTPClient: hc,
		// Membership never changes here; an hourly gossip keeps the
		// router's background polling out of the measurement.
		GossipInterval: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.handler(spanRouter, h)
	}
	n, err := serve(h)
	if err != nil {
		rt.Close()
		return nil, err
	}
	return &routerNode{node: n, rt: rt}, nil
}

func (r *routerNode) close() {
	r.node.close()
	r.rt.Close()
}

func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     maxConnsPerTarget,
		MaxIdleConnsPerHost: maxConnsPerTarget,
		IdleConnTimeout:     time.Minute,
	}
}

// newClient builds the benchmark's client for one target. Retries are off:
// a refused request counts as failed instead of being hidden by a retry.
func newClient(url string, tr *tracer) *client.Client {
	var rt http.RoundTripper = newTransport()
	if tr != nil {
		rt = tr.transport(spanHTTP, rt, false)
	}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: rt}), client.WithRetries(0))
}
