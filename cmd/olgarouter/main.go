// Command olgarouter fronts a sharded olgaprod fleet: a stateless HTTP
// router that places each UDF instance on its owning writer shard with a
// consistent-hash ring, forwards registration and learning traffic to the
// owner, and fans frozen (bit-replayable) eval/stream/query reads across
// the owner's replica set with whole-request retry on shard failure.
//
// The router speaks the same /v1 surface as a single shard, so clients
// need no fleet awareness: point olgapro/client (or curl) at the router
// and the fleet behaves like one scaled-out olgaprod.
//
//	olgarouter -addr :9090 -shards http://10.0.0.1:8080,http://10.0.0.2:8080
//
// The router is also the fleet's membership admin: -shards is only the
// boot-time list (epoch 0), and POST /v1/fleet/members with
// {"op":"join"|"leave","shard":"<base URL>"} mints the next membership
// epoch, re-routes traffic immediately, and broadcasts the epoch to every
// shard (GET /v1/fleet/members reports the current view). Only names whose
// ring replica set actually changed move; the departing owner keeps
// serving frozen reads until its successor has caught up.
//
// Optional -auth-token guards the router's listener and is forwarded to
// the shards as the fleet credential; -tls-cert/-tls-key serve TLS.
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"olgapro/internal/fleet"
	"olgapro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address (host:port; port 0 picks a free port)")
	shards := flag.String("shards", "", "comma-separated shard base URLs (required)")
	replicas := flag.Int("replicas", 2, "replication factor (owner + successors) for frozen reads")
	authToken := flag.String("auth-token", "", "bearer token required from clients and sent to shards")
	tlsCert := flag.String("tls-cert", "", "TLS certificate file (with -tls-key enables TLS)")
	tlsKey := flag.String("tls-key", "", "TLS private key file")
	insecureShards := flag.Bool("insecure-shards", false, "skip TLS verification on shard connections (self-signed fleet certs)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	flag.Parse()

	if err := run(*addr, *shards, *replicas, *authToken, *tlsCert, *tlsKey, *insecureShards, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(addr, shards string, replicas int, authToken, tlsCert, tlsKey string, insecureShards bool, drainTimeout time.Duration) error {
	logger := log.New(os.Stderr, "olgarouter: ", log.LstdFlags)
	shardList := fleet.ParseShards(shards)
	if len(shardList) == 0 {
		return errors.New("olgarouter: -shards is required (comma-separated base URLs)")
	}
	cfg := fleet.Config{
		Shards:    shardList,
		Replicas:  replicas,
		AuthToken: authToken,
		Logf:      logger.Printf,
	}
	if insecureShards {
		cfg.HTTPClient = &http.Client{Transport: &http.Transport{
			TLSClientConfig: &tls.Config{InsecureSkipVerify: true},
		}}
	}
	rt, err := fleet.NewRouter(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout so scripted drivers (the e2e
	// fleet CI job) can boot on port 0 and discover the port.
	fmt.Printf("olgarouter listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	return server.Serve(ctx, ln, rt.Handler(), tlsCert, tlsKey, drainTimeout, logger.Printf, rt.Close)
}
