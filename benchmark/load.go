package main

// Load generators. An open loop sends on a fixed schedule whatever the
// service does, so a stall queues the requests behind it; each latency is
// timed from the request's due time. A closed loop sends a sender's next
// request when the previous one returns; each latency is timed from the
// send. Both run a fixed number of sender goroutines, each waiting on its
// own request, so at most that many requests are in flight.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// op performs request i and returns how many tuples it processed.
type op func(ctx context.Context, i int) (tuples int, err error)

// traffic is what one timed phase measured.
type traffic struct {
	latMs   []float64 // successful requests only
	lateMs  []float64 // send time − due time (closed loop: − previous completion)
	reqs    int64
	failed  int64
	tuples  int64
	elapsed time.Duration
}

func (t *traffic) merge(o traffic) {
	t.latMs = append(t.latMs, o.latMs...)
	t.lateMs = append(t.lateMs, o.lateMs...)
	t.reqs += o.reqs
	t.failed += o.failed
	t.tuples += o.tuples
	t.elapsed += o.elapsed
}

func (t traffic) tuplesPerS() float64 { return float64(t.tuples) / t.elapsed.Seconds() }

func msSince(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }

// openLoop sends rate·dur requests on a fixed schedule from senders
// goroutines; sender k owns requests k, k+senders, …. A sender that falls
// behind sends at once, so the lateness shows in the latencies. Requests
// still unsent a full dur after the schedule ends count as failed.
func openLoop(ctx context.Context, rate float64, senders int, dur time.Duration, do op) traffic {
	n := int(rate * dur.Seconds())
	start := time.Now().Add(time.Millisecond)
	giveUp := start.Add(2 * dur)
	parts := make([]traffic, senders)
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p := &parts[k]
			for i := k; i < n; i += senders {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepUntil(due)
				sent := time.Now()
				p.reqs++
				if sent.After(giveUp) {
					p.failed++
					continue
				}
				tuples, err := do(ctx, i)
				done := time.Now()
				p.lateMs = append(p.lateMs, msSince(due, sent))
				if err != nil {
					p.failed++
					continue
				}
				p.latMs = append(p.latMs, msSince(due, done))
				p.tuples += int64(tuples)
			}
		}(k)
	}
	wg.Wait()
	var out traffic
	for _, p := range parts {
		out.merge(p)
	}
	out.elapsed = time.Since(start)
	return out
}

// pacedLoop sends request i when the i-th due time arrives on due, from
// one sender, timing each latency from its due time; a sender that falls
// behind sends at once. It returns once due is closed and drained.
func pacedLoop(ctx context.Context, due <-chan time.Time, do op) traffic {
	var t traffic
	start := time.Now()
	i := 0
	for d := range due {
		sent := time.Now()
		t.reqs++
		t.lateMs = append(t.lateMs, msSince(d, sent))
		tuples, err := do(ctx, i)
		done := time.Now()
		i++
		if err != nil {
			t.failed++
			continue
		}
		t.latMs = append(t.latMs, msSince(d, done))
		t.tuples += int64(tuples)
	}
	t.elapsed = time.Since(start)
	return t
}

// closedLoop runs senders goroutines back to back for dur; requests are
// numbered in send order across senders.
func closedLoop(ctx context.Context, senders int, dur time.Duration, do op) traffic {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]traffic, senders)
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p := &parts[k]
			prev := time.Now()
			for prev.Before(deadline) {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				p.reqs++
				p.lateMs = append(p.lateMs, msSince(prev, sent))
				tuples, err := do(ctx, i)
				done := time.Now()
				prev = done
				if err != nil {
					p.failed++
					continue
				}
				p.latMs = append(p.latMs, msSince(sent, done))
				p.tuples += int64(tuples)
			}
		}(k)
	}
	wg.Wait()
	var out traffic
	for _, p := range parts {
		out.merge(p)
	}
	out.elapsed = time.Since(start)
	return out
}

// slice is one slice of a run's traffic, with the host-speed factor
// measured around it (see hostref.go).
type slice struct {
	t       traffic
	k       int     // the probe before the slice
	f       float64 // its speed factor
	mallocs uint64  // allocations during the slice
}

// sliced runs fn(i) as consecutive slices between host-reference probes
// until d is spent, at least two slices.
func (rc *runCtx) sliced(d time.Duration, fn func(i int) traffic) []slice {
	end := time.Now().Add(d)
	var out []slice
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		var s slice
		s.k = rc.ref.slice(func() {
			m0 := mallocs()
			s.t = fn(i)
			s.mallocs = mallocs() - m0
		})
		rc.account(s.t)
		out = append(out, s)
	}
	for i := range out {
		out[i].f = rc.ref.factor(out[i].k)
	}
	return out
}

// every returns every other slice, starting at first.
func every(ss []slice, first int) []slice {
	var out []slice
	for i := first; i < len(ss); i += 2 {
		out = append(out, ss[i])
	}
	return out
}

// latencies pools the slices' latencies, at reference host speed.
func latencies(ss []slice) []float64 {
	var out []float64
	for _, s := range ss {
		for _, l := range s.t.latMs {
			out = append(out, l*s.f)
		}
	}
	return out
}

// perSlice is the fewest latency samples a slice needs for percentiles of
// its own: ten beyond the 90th.
const perSlice = 100

// latencyQuantile is the p-quantile of the slices' latencies at reference
// host speed. When every slice has perSlice samples it is the median over
// slices of each slice's own quantile, so one disturbed slice cannot move
// it; otherwise it is the quantile of all the samples pooled.
func latencyQuantile(ss []slice, p float64) float64 {
	var per []float64
	for _, s := range ss {
		if len(s.t.latMs) < perSlice {
			return quantile(latencies(ss), p)
		}
		per = append(per, quantile(s.t.latMs, p)*s.f)
	}
	return median(per)
}

// rate is the median slice throughput, at reference host speed.
func rate(ss []slice) float64 {
	var rs []float64
	for _, s := range ss {
		rs = append(rs, s.t.tuplesPerS()/s.f)
	}
	return median(rs)
}

// allocsPerTuple is the process's allocations over the slices per tuple.
func allocsPerTuple(ss []slice) float64 {
	var m uint64
	var n int64
	for _, s := range ss {
		m += s.mallocs
		n += s.t.tuples
	}
	return float64(m) / float64(n)
}

// merged pools the slices' traffic as measured.
func merged(ss []slice) traffic {
	var t traffic
	for _, s := range ss {
		t.merge(s.t)
	}
	return t
}

// speeds lists the slices' host-speed factors.
func speeds(ss []slice) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, s.f)
	}
	return out
}

// setTraffic records the traffic's end-to-end metrics at reference host
// speed: median latency over the lat slices, throughput over the tput
// slices, allocations over all of them. The 90th percentile is reported
// too, but not pinned: see README.md.
func (rc *runCtx) setTraffic(all, lat, tput []slice) {
	p50, p90, raw := latencyQuantile(lat, .5), latencyQuantile(lat, .9), merged(lat)
	logf("  %d requests, %d timed: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, %.1f tuples/s at reference speed (as measured: %.3f ms, %.3f ms, %.1f tuples/s); generator late p50 %.3f ms",
		merged(all).reqs, len(raw.latMs), p50, p90, latencyQuantile(lat, .99), rate(tput),
		quantile(raw.latMs, .5), quantile(raw.latMs, .9), merged(tput).tuplesPerS(), median(raw.lateMs))
	logf("  host speed per slice: %s", fmtList(speeds(all), 2))
	rc.set("req_p50_ms", p50)
	rc.set("tuples_per_s", rate(tput))
	rc.set("allocs_per_tuple", allocsPerTuple(all))
}
