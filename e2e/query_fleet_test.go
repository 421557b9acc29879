package e2e

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"olgapro/client"
)

// TestE2EQueryFleet is the distributed-query gate: a three-shard fleet
// where three UDF instances are each owned by a different shard must answer
// a bounded query spanning all three — group-by + top-k over the UDF
// outputs — with bytes identical to a single-shard fleet holding all three
// instances, and a single-instance plan must answer the same bytes whether
// it names its instance with the request-level udf or on each row. Then
// the hard part: kill -9 one owning shard while queries stream
// and assert every answer (retried onto the surviving replica, pinned by
// require_seq) stays byte-identical.
func TestE2EQueryFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds and boots real binaries; skipped in -short")
	}
	workDir := t.TempDir()
	prodBin := buildBinary(t, workDir, "olgapro/cmd/olgaprod")
	routerBin := buildBinary(t, workDir, "olgapro/cmd/olgarouter")
	inputs := sessionInputs()
	ctx := context.Background()

	// Fleet A: three shards with replication, behind a router.
	ports := []int{freePort(t), freePort(t), freePort(t)}
	urls := make([]string, 3)
	fleetList := ""
	for i, port := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", port)
		if i > 0 {
			fleetList += ","
		}
		fleetList += urls[i]
	}
	procs := make([]*proc, 3)
	for i, port := range ports {
		procs[i] = startProc(t, prodBin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-snapshot-dir", filepath.Join(workDir, fmt.Sprintf("snap%d", i)),
			"-workers", "2", "-timeout", "10s", "-drain-timeout", "10s",
			"-fleet", fleetList, "-self", urls[i], "-replicas", "2",
		)
	}
	pR := startProc(t, routerBin, "-addr", "127.0.0.1:0", "-shards", fleetList, "-replicas", "2")
	clA := client.New("http://" + pR.addr)

	// Fleet B: one plain shard holding every instance, behind its own router.
	portSolo := freePort(t)
	pSolo := startProc(t, prodBin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", portSolo),
		"-snapshot-dir", filepath.Join(workDir, "snapSolo"),
		"-workers", "2", "-timeout", "10s", "-drain-timeout", "10s",
	)
	pRSolo := startProc(t, routerBin, "-addr", "127.0.0.1:0",
		"-shards", fmt.Sprintf("http://127.0.0.1:%d", portSolo), "-replicas", "1")
	clB := client.New("http://" + pRSolo.addr)
	_ = pSolo

	// Register candidate instances identically on both fleets until every
	// fleet-A shard owns one; the same warmup and seed leave both fleets
	// with bit-identical models per name.
	shards := map[string]*client.Client{}
	for i, u := range urls {
		shards[u] = procs[i].client()
	}
	ownerUDF := map[string]string{} // fleet-A shard URL -> a UDF it owns
	covered := func() bool {
		for _, u := range urls {
			if ownerUDF[u] == "" {
				return false
			}
		}
		return true
	}
	for i := 0; i < 24 && !covered(); i++ {
		name := fmt.Sprintf("u%d", i)
		reg := client.RegisterRequest{
			Name: name, UDF: "poly/smooth2d", Eps: 0.2, Delta: 0.1,
			Sparse: &client.SparseSpec{Budget: 64},
			Warmup: inputs[:4], WarmupSeed: 99,
		}
		if _, err := clA.Register(ctx, reg); err != nil {
			t.Fatalf("register %s on fleet A: %v", name, err)
		}
		if _, err := clB.Register(ctx, reg); err != nil {
			t.Fatalf("register %s on fleet B: %v", name, err)
		}
		owner := ownerOf(t, ctx, name, shards)
		if owner == "" {
			t.Fatalf("no shard owns %s after registration", name)
		}
		if ownerUDF[owner] == "" {
			ownerUDF[owner] = name
		}
	}
	if !covered() {
		t.Fatalf("24 candidate names did not cover all three shards: %v", ownerUDF)
	}
	names := []string{ownerUDF[urls[0]], ownerUDF[urls[1]], ownerUDF[urls[2]]}
	t.Logf("instances per shard: %v", names)

	// Pin every query to the owners' model sequences: a mid-catch-up replica
	// answers model_cold and the router retries a caught-up member, so the
	// bytes can never come from stale state.
	requireSeq := map[string]int64{}
	for i, name := range names {
		list, err := shards[urls[i]].ListUDFs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range list.UDFs {
			if info.Name == name {
				requireSeq[name] = info.ModelSeq
			}
		}
		if requireSeq[name] == 0 {
			t.Fatalf("owner of %s reports no model seq", name)
		}
	}

	rows := make([]client.QueryRow, 12)
	for i := range rows {
		rows[i] = client.QueryRow{
			Input: inputs[10+i],
			Group: string(rune('a' + i%3)),
			UDF:   names[i%3],
		}
	}
	crossPlan := client.QueryRequest{
		Rows: rows, Seed: 17, RequireSeq: requireSeq,
		GroupBy: &client.GroupBySpec{
			Keys: []string{"g"},
			Aggs: []client.AggSpec{
				{Kind: "count"}, {Kind: "sum", Attr: "y"}, {Kind: "avg", Attr: "y"},
				{Kind: "min", Attr: "y"}, {Kind: "max", Attr: "y"},
			},
		},
		TopK: &client.TopKSpec{K: 2, By: "avg_y", Desc: true},
	}

	// Gate 1: the three-shard scatter-gather answer is byte-identical to the
	// single-shard fleet's answer to the same plan.
	wantCross, err := clA.Query(ctx, crossPlan)
	if err != nil {
		t.Fatalf("cross-shard query on fleet A: %v", err)
	}
	soloCross, err := clB.Query(ctx, crossPlan)
	if err != nil {
		t.Fatalf("cross-shard query on fleet B: %v", err)
	}
	if !bytes.Equal(wantCross, soloCross) {
		t.Fatalf("three-shard answer diverged from single-shard fleet:\n%s\nvs\n%s", wantCross, soloCross)
	}

	// Gate 2: a single-instance plan naming its instance with the
	// request-level udf answers the same bytes as the same plan naming it on
	// each row — the request-level udf is only decode sugar for rows that
	// name none.
	oneFwd := client.QueryRequest{
		UDF: names[1], Seed: 23, RequireSeq: requireSeq,
		Rows: func() []client.QueryRow {
			rs := make([]client.QueryRow, 8)
			for i := range rs {
				rs[i] = client.QueryRow{Input: inputs[30+i], Group: string(rune('a' + i%2))}
			}
			return rs
		}(),
		TopK: &client.TopKSpec{K: 3, By: "y", Desc: true},
	}
	oneScat := oneFwd
	oneScat.Rows = append([]client.QueryRow(nil), oneFwd.Rows...)
	for i := range oneScat.Rows {
		oneScat.Rows[i].UDF = names[1]
	}
	fwdBytes, err := clA.Query(ctx, oneFwd)
	if err != nil {
		t.Fatalf("forwarded single-instance query: %v", err)
	}
	scatBytes, err := clA.Query(ctx, oneScat)
	if err != nil {
		t.Fatalf("scattered single-instance query: %v", err)
	}
	if !bytes.Equal(fwdBytes, scatBytes) {
		t.Fatalf("scatter-gather diverged from forwarded plan:\n%s\nvs\n%s", fwdBytes, scatBytes)
	}

	// Wait until some surviving shard replicates names[0] at the owner's
	// sequence — the failover target for the kill below.
	deadline := time.Now().Add(60 * time.Second)
	for {
		caught := false
		for i, u := range urls {
			if i == 0 {
				continue
			}
			list, err := shards[u].ListUDFs(ctx)
			if err != nil {
				continue
			}
			for _, info := range list.UDFs {
				if info.Name == names[0] && info.Replica && info.ModelSeq >= requireSeq[names[0]] {
					caught = true
				}
			}
		}
		if caught {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no replica of %s caught up to seq %d", names[0], requireSeq[names[0]])
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Gate 3: kill -9 the shard owning names[0] while the cross-shard query
	// streams. Every answer — including those whose scatter was in flight
	// when the shard died — must be retried onto the replica and stay
	// byte-identical.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(50 * time.Millisecond)
		procs[0].kill9(t)
	}()
	deadline = time.Now().Add(30 * time.Second)
	for n := 0; ; n++ {
		got, err := clA.Query(ctx, crossPlan)
		if err != nil {
			t.Fatalf("cross-shard query %d during outage: %v", n, err)
		}
		if !bytes.Equal(got, wantCross) {
			t.Fatalf("cross-shard query %d diverged during outage:\n%s\nvs\n%s", n, got, wantCross)
		}
		select {
		case <-killed:
			if n >= 3 {
				// A few more after the death to prove steady-state failover.
				if n >= 6 {
					return
				}
			}
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("kill window did not close within 30s")
		}
	}
}
