// Package vclock provides the virtual cost clock used by the benchmark
// harness to reproduce the paper's evaluation-time sweeps.
//
// The paper varies the UDF evaluation time T from 1µs to 1s (§6.1-A). On
// real hardware, re-running Monte Carlo with tens of thousands of UDF calls
// at T = 1s would take many hours per data point, so the harness charges
// UDF invocations to a virtual clock at their *nominal* cost while measuring
// the algorithms' own computation in real wall time. Total reported time is
//
//	total = measured algorithm time + (#UDF calls × T)
//
// which is exactly the cost model behind the paper's GP-vs-MC tradeoff: the
// GP approach wins when UDF calls dominate; MC wins when they are free.
package vclock

import (
	"sync/atomic"
	"time"
)

// Clock accumulates real (measured) and simulated (charged) durations.
// It is safe for concurrent use. The zero value is a clock at zero.
type Clock struct {
	measuredNs int64
	chargedNs  int64
}

// Charge records n UDF invocations at per cost each on the simulated clock.
func (c *Clock) Charge(n int, per time.Duration) {
	atomic.AddInt64(&c.chargedNs, int64(n)*int64(per))
}

// AddMeasured records an externally measured duration.
func (c *Clock) AddMeasured(d time.Duration) {
	atomic.AddInt64(&c.measuredNs, int64(d))
}

// Run executes fn and adds its wall-clock duration to the measured total.
func (c *Clock) Run(fn func()) {
	start := time.Now()
	fn()
	c.AddMeasured(time.Since(start))
}

// Measured returns the accumulated real computation time.
func (c *Clock) Measured() time.Duration {
	return time.Duration(atomic.LoadInt64(&c.measuredNs))
}

// Charged returns the accumulated simulated UDF evaluation time.
func (c *Clock) Charged() time.Duration {
	return time.Duration(atomic.LoadInt64(&c.chargedNs))
}

// Total returns measured + charged time, the quantity the paper plots.
func (c *Clock) Total() time.Duration {
	return c.Measured() + c.Charged()
}
