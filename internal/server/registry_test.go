package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/server/wire"
)

// smoothEntry registers the smooth 2-D UDF on a fresh registry and returns
// the entry with one learnable input.
func smoothEntry(t *testing.T) (*Registry, *udfEntry, dist.Vector) {
	t.Helper()
	reg := NewRegistry(1)
	e, err := reg.Register(RegisterSpec{UDF: "poly/smooth2d", Eps: 0.2, Delta: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := (wire.InputSpec{
		{Type: "normal", Mu: 0.5, Sigma: 0.1},
		{Type: "normal", Mu: 0.5, Sigma: 0.1},
	}).Vector()
	if err != nil {
		t.Fatal(err)
	}
	return reg, e, in
}

// within fails the test unless ch yields before the timeout.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no answer in 5 s", what)
		panic("unreachable")
	}
}

// TestRegistryCloseDrainsLearner pins the learner token's shutdown order: a
// learn queued behind the token's holder answers errDraining as soon as
// Close starts, Close returns only once the holder finishes, and every
// later learn answers errDraining.
func TestRegistryCloseDrainsLearner(t *testing.T) {
	reg, e, in := smoothEntry(t)
	ctx := context.Background()

	entered, release, held := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		held <- e.withWriter(ctx, func(*core.Evaluator) error {
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered
	queued := make(chan error, 1)
	go func() { queued <- e.learnEval(ctx, in, 1, nil) }()
	time.Sleep(20 * time.Millisecond) // let the learn queue for the token

	closed := make(chan struct{})
	go func() {
		reg.Close()
		close(closed)
	}()
	if err := within(t, queued, "queued learn"); !errors.Is(err, errDraining) {
		t.Fatalf("queued learn after Close started: %v, want errDraining", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while the learner token was held")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	within(t, closed, "Close after the holder finished")
	if err := within(t, held, "holder"); err != nil {
		t.Fatalf("holder: %v", err)
	}
	if err := e.learnEval(ctx, in, 2, nil); !errors.Is(err, errDraining) {
		t.Fatalf("learn after Close: %v, want errDraining", err)
	}
	if _, err := e.stats(ctx); !errors.Is(err, errDraining) {
		t.Fatalf("stats after Close: %v, want errDraining", err)
	}
}

// TestRegistryRemoveRacesClose runs the registration rollback against
// Close on the same entry: both must return, whichever stops it first.
func TestRegistryRemoveRacesClose(t *testing.T) {
	for i := 0; i < 50; i++ {
		reg, e, _ := smoothEntry(t)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); reg.remove(e.spec.Name) }()
		go func() { defer wg.Done(); reg.Close() }()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		within(t, done, "remove racing Close")
	}
}

// expiringCtx is a context whose Err reports a fired deadline from its
// second call on and whose Done never fires: it expires between the
// learner's check on taking the token and the end of its evaluation.
type expiringCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *expiringCtx) Err() error {
	if c.calls.Add(1) > 1 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestLearnPastDeadlineStaysLearned: a learn whose deadline fires while it
// runs keeps what it learned, publishes it, and answers the deadline
// without emitting its output.
func TestLearnPastDeadlineStaysLearned(t *testing.T) {
	reg, e, in := smoothEntry(t)
	defer reg.Close()
	seq, points := e.Seq(), e.Points()
	emitted := false
	err := e.learnEval(&expiringCtx{Context: context.Background()}, in, 1, func(*core.Output) { emitted = true })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("learn past its deadline: %v, want context.DeadlineExceeded", err)
	}
	if emitted {
		t.Fatal("a learn past its deadline emitted its output")
	}
	if e.Seq() != seq+1 || e.Points() <= points {
		t.Fatalf("learn past its deadline: seq %d → %d, points %d → %d; want it learned and published",
			seq, e.Seq(), points, e.Points())
	}
}

// TestWaitReplicationNoLostWakeup races a waiter at the current version
// against a bump on another goroutine, started a few varied nanoseconds
// apart so the bump lands at every point of the wait, including between
// its version read and its channel read. Every wait must end at the bump,
// well before the short deadline.
func TestWaitReplicationNoLostWakeup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("racing a bump against a wait needs two procs")
	}
	const rounds = 20_000
	r := NewRegistry(1)
	var start atomic.Int64 // the round the bumper may run
	quit := make(chan struct{})
	defer close(quit)
	go func() {
		for round := int64(1); ; round++ {
			for start.Load() < round {
				select {
				case <-quit:
					return
				default:
				}
			}
			for spin := round % 32; spin > 0; spin-- {
				start.Load()
			}
			r.bumpVersion()
		}
	}()
	const deadline = 2 * time.Second
	for round := int64(1); round <= rounds; round++ {
		since := r.version.Load()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start.Store(round)
		got := r.WaitReplication(ctx, since)
		expired := ctx.Err() != nil
		cancel()
		if expired {
			t.Fatalf("round %d: a wait at version %d ran to its %v deadline (version now %d): the bump's wakeup was lost",
				round, since, deadline, got)
		}
	}
}
