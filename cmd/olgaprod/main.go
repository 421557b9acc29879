// Command olgaprod serves the OLGAPRO evaluation pipeline over HTTP/JSON:
// a long-lived process that keeps one warm, tuning-enabled GP emulator per
// registered UDF so the expensive online learning is paid once and reused
// across every request — the serving form of the paper's core economics.
//
// API, all under /v1 (see the README "Serving" section for curl examples):
//
//	GET  /v1/healthz                  liveness + in-flight gauge
//	GET  /v1/stats                    per-UDF counters incl. UDF-call savings vs MC
//	GET  /v1/catalog                  built-in registrable UDFs
//	GET  /v1/udfs                     registered instances
//	POST /v1/udfs                     register {"udf":"mix/f1","eps":0.1,...}
//	POST /v1/udfs/{name}/eval         one tuple {"input":[{"type":"normal",...}]}
//	POST /v1/udfs/{name}/stream       NDJSON tuple stream; ?learn=false&seed=S
//	                                  serves frozen, bit-replayable output
//	POST /v1/udfs/{name}/snapshot     persist trained GP state to -snapshot-dir
//	POST /v1/snapshot                 persist every registered UDF
//	POST /v1/query                    bounded relational query on frozen clones
//	GET  /v1/replication/udfs         hosted UDFs + model seqs (long-polls)
//	GET  /v1/udfs/{name}/snapshot     raw snapshot bytes for replication
//	GET  /v1/replication/members      current membership epoch + shard list
//	POST /v1/replication/members      adopt a higher membership epoch
//
// On boot, snapshots found in -snapshot-dir are restored, so a restarted
// server skips re-learning. SIGTERM/SIGINT drain gracefully: in-flight
// requests finish (up to -drain-timeout), new ones are refused with 503.
//
// Fleet mode: -fleet lists the boot-time shard base URLs (membership
// epoch 0) and -self names this process's own; the shard then pulls models
// owned by its peers as versioned snapshot deltas and serves them as
// frozen read replicas. It long-polls each peer's GET /v1/replication/udfs,
// which answers on every model-seq bump, so a replica fetches each new seq
// about one round trip after the owner learns it. A shard joining an already-running fleet boots
// with -fleet <its own URL> and is announced through the router's
// POST /v1/fleet/members, which broadcasts the new epoch. Front the fleet
// with cmd/olgarouter.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"olgapro/internal/fleet"
	"olgapro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	snapshotDir := flag.String("snapshot-dir", "", "directory for GP snapshots (empty disables persistence)")
	snapshotKeep := flag.Int("snapshot-keep", 3, "sequence-stamped snapshot files retained per UDF")
	maxInFlight := flag.Int("max-inflight", 256, "max tuples in flight before 429")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	workers := flag.Int("workers", 0, "frozen-clone slots per UDF (≤ 0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	authToken := flag.String("auth-token", "", "bearer token required on every request (health checks exempt)")
	tlsCert := flag.String("tls-cert", "", "TLS certificate file (with -tls-key enables TLS)")
	tlsKey := flag.String("tls-key", "", "TLS private key file")
	fleetShards := flag.String("fleet", "", "comma-separated base URLs of every fleet shard (enables replication)")
	self := flag.String("self", "", "this shard's own base URL within -fleet")
	replicas := flag.Int("replicas", 2, "fleet replication factor (owner + successors)")
	flag.Parse()

	if err := run(options{
		addr: *addr, snapshotDir: *snapshotDir, snapshotKeep: *snapshotKeep,
		maxInFlight: *maxInFlight, timeout: *timeout, workers: *workers,
		drainTimeout: *drainTimeout, authToken: *authToken,
		tlsCert: *tlsCert, tlsKey: *tlsKey,
		fleet: *fleetShards, self: *self, replicas: *replicas,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type options struct {
	addr, snapshotDir          string
	snapshotKeep, maxInFlight  int
	timeout, drainTimeout      time.Duration
	workers                    int
	authToken, tlsCert, tlsKey string
	fleet, self                string
	replicas                   int
}

func run(o options) error {
	logger := log.New(os.Stderr, "olgaprod: ", log.LstdFlags)
	srv, err := server.New(server.Config{
		SnapshotDir:    o.snapshotDir,
		SnapshotKeep:   o.snapshotKeep,
		MaxInFlight:    o.maxInFlight,
		RequestTimeout: o.timeout,
		Workers:        o.workers,
		AuthToken:      o.authToken,
		Logf:           logger.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout so scripted drivers (the e2e CI
	// job) can boot on port 0 and discover the port.
	fmt.Printf("olgaprod listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	var closers []func()
	if o.fleet != "" {
		shards := fleet.ParseShards(o.fleet)
		if o.self == "" {
			return errors.New("olgaprod: -fleet requires -self (this shard's base URL)")
		}
		repl, err := fleet.StartReplicator(fleet.ReplicatorConfig{
			Self:      o.self,
			Shards:    shards,
			Registry:  srv.Registry(),
			Replicas:  o.replicas,
			AuthToken: o.authToken,
			Logf:      logger.Printf,
		})
		if err != nil {
			return err
		}
		// Wire the replicator into the HTTP surface: replication lists gossip
		// the membership epoch, and POST /v1/replication/members feeds
		// adopted epochs in.
		srv.SetFleetHooks(&server.FleetHooks{
			Membership:      repl.Membership,
			AdoptMembership: repl.AdoptMembership,
		})
		closers = append(closers, repl.Close)
		logger.Printf("fleet replication on: %d shards, self=%s, factor %d", len(shards), o.self, o.replicas)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	return server.Serve(ctx, ln, srv.Handler(), o.tlsCert, o.tlsKey, o.drainTimeout, logger.Printf, append(closers, srv.Close)...)
}
