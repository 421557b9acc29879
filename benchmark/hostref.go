package main

// Host-speed normalization. On a shared host the speed this process gets
// drifts by tens of percent over seconds to minutes, and every workload's
// timings drift with it. A fixed reference service, measured between
// slices of the workload's traffic, tracks that drift: a net/http handler
// in this process that decodes a small JSON request and encodes a JSON
// answer, driven by two closed-loop senders. It uses only the standard
// library, so no change to the repository's code can move it. Each slice of
// traffic gets the speed factor f = (median reference rate of the probes
// within refWindow slices of it) / refNominal; time metrics are reported as
// measured × f, rates as measured / f, i.e. at the speed of a host where
// the reference serves refNominal requests per second. The window smooths
// the probes' own noise and still follows drift over several seconds.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"time"
)

const (
	// refNominal is the reference rate, in requests per second, that
	// defines speed factor 1.
	refNominal = 30000.0
	// refWindow is how many slices on either side of a slice its factor's
	// probes reach.
	refWindow = 2
)

// refRequest and refAnswer have the shape of an eval request and answer.
type refRequest struct {
	Input []struct {
		Type  string  `json:"type"`
		Mu    float64 `json:"mu"`
		Sigma float64 `json:"sigma"`
	} `json:"input"`
	Seed  int64 `json:"seed"`
	Learn *bool `json:"learn"`
}

type refAnswer struct {
	Seq       int64              `json:"seq"`
	Bound     float64            `json:"bound"`
	Mean      float64            `json:"mean"`
	Quantiles map[string]float64 `json:"quantiles"`
	Support   []float64          `json:"support"`
}

func refHandler(w http.ResponseWriter, r *http.Request) {
	var req refRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || len(req.Input) == 0 {
		http.Error(w, "bad reference request", http.StatusBadRequest)
		return
	}
	a := refAnswer{Seq: req.Seed, Quantiles: map[string]float64{}}
	for i := 0; i < 16; i++ {
		v := req.Input[0].Mu + float64(i)*req.Input[0].Sigma
		a.Support = append(a.Support, v)
		a.Mean += v / 16
	}
	for _, q := range []string{"p05", "p25", "p50", "p75", "p95"} {
		a.Quantiles[q] = a.Mean
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(a)
}

// hostRef is the reference service and its readings so far.
type hostRef struct {
	n     *node
	hc    *http.Client
	body  []byte
	probe time.Duration // length of one probe
	rates []float64     // every probe's rate, in order
	err   error         // first failed probe
}

func startHostRef(probe time.Duration) (*hostRef, error) {
	n, err := serve(http.HandlerFunc(refHandler))
	if err != nil {
		return nil, err
	}
	body := []byte(`{"input":[{"type":"normal","mu":0.5,"sigma":0.15},{"type":"normal","mu":0.4,"sigma":0.15}],"seed":7,"learn":false}`)
	return &hostRef{n: n, hc: &http.Client{Transport: newTransport()}, body: body, probe: probe}, nil
}

func (h *hostRef) close() {
	h.hc.CloseIdleConnections()
	h.n.close()
}

// measure drives the reference with two closed-loop senders for one probe
// and returns its rate in requests per second; NaN, with err set, if any
// request failed.
func (h *hostRef) measure() float64 {
	// Collect first, so the probe does not pay for the slice's garbage.
	runtime.GC()
	t := closedLoop(context.Background(), 2, h.probe, func(ctx context.Context, _ int) (int, error) {
		resp, err := h.hc.Post(h.n.url+"/", "application/json", bytes.NewReader(h.body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("reference answered HTTP %d", resp.StatusCode)
		}
		return 1, nil
	})
	if t.failed > 0 || t.tuples == 0 {
		if h.err == nil {
			h.err = fmt.Errorf("host reference probe: %d of %d requests failed", t.failed, t.reqs)
		}
		return math.NaN()
	}
	return t.tuplesPerS()
}

// slice runs fn between two probes and returns the index of the probe
// before it, which factor takes.
func (h *hostRef) slice(fn func()) int {
	if len(h.rates) == 0 {
		h.rates = append(h.rates, h.measure())
	}
	k := len(h.rates) - 1
	fn()
	h.rates = append(h.rates, h.measure())
	return k
}

// factor is the speed factor of the slice that followed probe k.
func (h *hostRef) factor(k int) float64 {
	lo, hi := max(0, k-refWindow), min(len(h.rates), k+refWindow+2)
	return median(h.rates[lo:hi]) / refNominal
}
