package fleet

import (
	"fmt"
	"slices"
	"testing"

	"olgapro/internal/server/wire"
)

func TestMemberViewAdopt(t *testing.T) {
	v, err := NewMemberView(wire.Membership{Epoch: 0, Shards: []string{"http://b", "http://a"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Current().Shards; got[0] != "http://a" || got[1] != "http://b" {
		t.Fatalf("boot shard list not canonicalized: %v", got)
	}
	if _, prev := v.Rings(); prev != nil {
		t.Fatal("previous ring must be nil before the first adoption")
	}

	// Equal and lower epochs are ignored.
	if changed, err := v.Adopt(wire.Membership{Epoch: 0, Shards: []string{"http://c"}}); err != nil || changed {
		t.Fatalf("equal epoch adopted: %v, %v", changed, err)
	}

	// A higher epoch with an invalid shard list is reported without
	// changing the view.
	if changed, err := v.Adopt(wire.Membership{Epoch: 1, Shards: nil}); err == nil || changed {
		t.Fatalf("invalid membership accepted: %v, %v", changed, err)
	}
	if v.Epoch() != 0 {
		t.Fatalf("epoch moved on rejected adopt: %d", v.Epoch())
	}

	oldRing := v.Ring()
	if changed, err := v.Adopt(wire.Membership{Epoch: 3, Shards: []string{"http://a", "http://b", "http://c"}}); err != nil || !changed {
		t.Fatalf("higher epoch rejected: %v, %v", changed, err)
	}
	if v.Epoch() != 3 {
		t.Fatalf("epoch: %d, want 3", v.Epoch())
	}
	cur, prev := v.Rings()
	if prev != oldRing {
		t.Fatal("previous ring not retained across adoption")
	}
	if len(cur.Addrs()) != 3 {
		t.Fatalf("current ring: %v", cur.Addrs())
	}

	// Stale epochs arriving late (gossip reordering) stay ignored.
	if changed, _ := v.Adopt(wire.Membership{Epoch: 2, Shards: []string{"http://a"}}); changed {
		t.Fatal("stale epoch adopted after a newer one")
	}
}

// shardList builds n synthetic shard addresses.
func shardList(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://shard-%d:8080", i)
	}
	return out
}

// TestRingRebalanceOnJoin is the rebalancing property suite over 10k names
// and fleets of 2–8 shards: adding one shard moves an owner or a replica
// set only onto the joined shard, the moved-owner fraction stays within 2×
// of the ideal 1/(n+1), and every other name keeps its exact replica set.
func TestRingRebalanceOnJoin(t *testing.T) {
	const names = 10000
	const replicas = 2
	for n := 2; n <= 8; n++ {
		before, err := NewRing(shardList(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		shards := shardList(n + 1)
		joined := shards[n]
		after, err := NewRing(shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		movedOwners := 0
		for i := 0; i < names; i++ {
			name := fmt.Sprintf("udf-%d", i)
			if ob, oa := before.Owner(name), after.Owner(name); ob != oa {
				movedOwners++
				if oa != joined {
					t.Fatalf("n=%d: %s moved %s → %s, not to the joined shard", n, name, ob, oa)
				}
			}
			// A replica set the joined shard did not enter keeps its exact
			// placement — owner and replica order — or the "only re-placed
			// names are re-pulled" contract would silently re-fetch it.
			b, a := before.Replicas(name, replicas), after.Replicas(name, replicas)
			if !slices.Equal(b, a) && !slices.Contains(a, joined) {
				t.Fatalf("n=%d: %s replicas moved %v → %v without the joined shard", n, name, b, a)
			}
		}
		ideal := float64(names) / float64(n+1)
		if f := float64(movedOwners); f > 2*ideal {
			t.Fatalf("n=%d→%d: %d owners moved, more than 2× the ideal %.0f", n, n+1, movedOwners, ideal)
		}
		if movedOwners == 0 {
			t.Fatalf("n=%d→%d: no owner moved — the new shard owns nothing", n, n+1)
		}
	}
}

// TestRingRebalanceOnLeave mirrors the join suite for shard removal: every
// name owned by the departed shard moves (nowhere else to go), nothing else
// moves beyond the replica-set diff, and the moved fraction stays within 2×
// of the departed shard's share.
func TestRingRebalanceOnLeave(t *testing.T) {
	const names = 10000
	const replicas = 2
	for n := 3; n <= 8; n++ {
		shards := shardList(n)
		before, err := NewRing(shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		departed := shards[n-1]
		after, err := NewRing(shards[:n-1], 0)
		if err != nil {
			t.Fatal(err)
		}
		movedOwners := 0
		for i := 0; i < names; i++ {
			name := fmt.Sprintf("udf-%d", i)
			ob, oa := before.Owner(name), after.Owner(name)
			if ob == departed && oa == departed {
				t.Fatalf("n=%d: %s still owned by the departed shard", n, name)
			}
			if ob != oa {
				movedOwners++
				if ob != departed {
					t.Fatalf("n=%d: %s moved %s → %s though its owner did not leave", n, name, ob, oa)
				}
			}
		}
		ideal := float64(names) / float64(n)
		if f := float64(movedOwners); f > 2*ideal {
			t.Fatalf("n=%d→%d: %d owners moved, more than 2× the ideal %.0f", n, n-1, movedOwners, ideal)
		}
	}
}

// TestRingLoadUniformity documents the 64-vnode default with evidence:
// across fleets of 2–8 shards and 10k names, every shard's owned share
// stays within ±25% of uniform.
func TestRingLoadUniformity(t *testing.T) {
	const names = 10000
	for n := 2; n <= 8; n++ {
		ring, err := NewRing(shardList(n), 64)
		if err != nil {
			t.Fatal(err)
		}
		load := make(map[string]int, n)
		for i := 0; i < names; i++ {
			load[ring.Owner(fmt.Sprintf("udf-%d", i))]++
		}
		uniform := float64(names) / float64(n)
		for shard, got := range load {
			if f := float64(got); f < 0.75*uniform || f > 1.25*uniform {
				t.Fatalf("n=%d: shard %s owns %d of %d names (uniform %.0f ± 25%%)", n, shard, got, names, uniform)
			}
		}
	}
}
