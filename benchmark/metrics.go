package main

import (
	"math"
	"sort"
)

// metric is one reported number: a name, its unit, and which direction is
// better. The tables below are what BENCHMARK.json pins; the conformance
// test keeps the two equal.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the numbers a user of the service sees. Every workload
// reports each of them when tracing is off.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"tuples_per_s", "tuples/s", "higher"},
	{"udf_calls_per_tuple", "calls", "lower"},
	{"allocs_per_tuple", "allocs", "lower"},
	{"heap_retained_mb", "MB", "lower"},
}

// perLayer are the traced run's numbers. Every workload reports each of
// them when tracing is on; README.md says which end-to-end metric each one
// should move.
var perLayer = []metric{
	{"gen.late_ms", "ms", "lower"},
	{"client.rtt_ms", "ms", "lower"},
	{"net.self_ms", "ms", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.unattributed_ms", "ms", "lower"},
	{"server.seq_bumps", "count", "lower"},
	{"fleet.fanout", "calls", "lower"},
	{"wire.decode_ms", "ms", "lower"},
	{"wire.encode_ms", "ms", "lower"},
	{"wire.req_bytes", "B", "lower"},
	{"wire.resp_bytes", "B", "lower"},
	{"dist.sample_us", "us", "lower"},
	{"core.eval_us", "us", "lower"},
	{"core.clone_ms", "ms", "lower"},
	{"core.samples", "count", "lower"},
	{"core.local_points", "count", "lower"},
	{"core.points", "count", "lower"},
	{"core.bound_over_eps", "ratio", "lower"},
	{"exec.pool_tuples_per_s", "tuples/s", "higher"},
	{"exec.serving_share", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// value is one metric reading in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints on standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
