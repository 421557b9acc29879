package server

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeDrains: once ctx is done, Serve stops accepting connections,
// lets a slow in-flight request finish, runs its closers once each, in
// order, after the HTTP server has shut down, and returns nil.
func TestServeDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	started, finish := make(chan struct{}), make(chan struct{})
	var answered atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-finish
		io.WriteString(w, "slow answer")
		answered.Store(true)
	})
	var mu sync.Mutex
	var closed []string
	closer := func(name string) func() {
		return func() {
			mu.Lock()
			defer mu.Unlock()
			if !answered.Load() {
				t.Errorf("closer %s ran before the in-flight request was answered", name)
			}
			closed = append(closed, name)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, ln, h, "", "", 10*time.Second, t.Logf, closer("first"), closer("second"))
	}()

	type answer struct {
		body string
		err  error
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			got <- answer{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- answer{string(b), err}
	}()
	<-started
	cancel()

	// The listener closes while the slow request is still in flight.
	for deadline := time.Now().Add(5 * time.Second); ; {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener still accepts connections after the drain began")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request in flight", err)
	default:
	}

	close(finish)
	if a := <-got; a.err != nil || a.body != "slow answer" {
		t.Fatalf("in-flight request: %q, %v; want the slow answer", a.body, a.err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after a drain: %v", err)
	}
	if len(closed) != 2 || closed[0] != "first" || closed[1] != "second" {
		t.Fatalf("closers ran as %v, want [first second]", closed)
	}
}

// failingListener's Accept fails at once.
type failingListener struct{ net.Listener }

var errAcceptFailed = errors.New("accept failed")

func (failingListener) Accept() (net.Conn, error) { return nil, errAcceptFailed }

// TestServeListenerFailure: a listener that fails before ctx is done ends
// Serve with its error, and no closer runs.
func TestServeListenerFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ran := false
	err = Serve(context.Background(), failingListener{ln}, http.NotFoundHandler(), "", "", time.Second, t.Logf, func() { ran = true })
	if !errors.Is(err, errAcceptFailed) {
		t.Fatalf("Serve on a failing listener: %v, want %v", err, errAcceptFailed)
	}
	if ran {
		t.Fatal("a closer ran although Serve never drained")
	}
}
