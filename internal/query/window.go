package query

import (
	"fmt"
	"io"
)

// WindowSpec configures a sliding positional window.
type WindowSpec struct {
	// Size is the window length in tuples (> 0).
	Size int
	// Step is the slide between window starts (≤ 0: Size, i.e. tumbling).
	Step int
	// Aggs are the aggregate columns computed per window.
	Aggs []Agg
}

func (s WindowSpec) step() int {
	if s.Step <= 0 {
		return s.Size
	}
	return s.Step
}

func (s WindowSpec) validate() error {
	if s.Size <= 0 {
		return fmt.Errorf("window size %d, want > 0", s.Size)
	}
	if len(s.Aggs) == 0 {
		return fmt.Errorf("window needs at least one aggregate")
	}
	seen := map[string]bool{"win_start": true, "win_end": true}
	for _, a := range s.Aggs {
		if err := a.validate(); err != nil {
			return err
		}
		if seen[a.name()] {
			return fmt.Errorf("duplicate window output attribute %q", a.name())
		}
		seen[a.name()] = true
	}
	return nil
}

// Window is the sliding-window aggregate operator: positional windows of
// Size tuples advancing by Step, each emitting one fresh tuple with the
// window's position ("win_start"/"win_end", 0-based half-open over input
// ordinals) and one Bounded attribute per aggregate, holding the
// [certain, possible] interval of the aggregate over every possible world
// of the window's tuples (see Partial.Bound; min/max/avg are conditional on
// the window being realized nonempty). Only complete windows are emitted.
// Window streams — it buffers at most Size input tuples — and follows the
// package error convention.
type Window struct {
	In   Iterator
	Spec WindowSpec

	state     opErr
	buf       []*Tuple // current window prefix, oldest first
	bufStart  int64    // input ordinal of buf[0]
	skip      int      // input tuples to discard before buf[0] (step > size)
	parts     []*Partial
	validated bool
	done      bool
}

// NewWindow builds the operator.
func NewWindow(in Iterator, spec WindowSpec) *Window {
	return &Window{In: in, Spec: spec}
}

// Next returns the next complete window's aggregate tuple.
func (w *Window) Next() (*Tuple, error) {
	if err := w.state.sticky(); err != nil {
		return nil, err
	}
	if !w.validated {
		w.validated = true
		if err := w.Spec.validate(); err != nil {
			return nil, w.state.fail("window", err)
		}
		w.parts = w.Spec.partials()
	}
	for !w.done {
		if len(w.buf) == w.Spec.Size {
			out, err := w.emit()
			if err != nil {
				return nil, w.state.fail("window", err)
			}
			w.slide()
			return out, nil
		}
		t, err := w.In.Next()
		if err == io.EOF {
			w.done = true
			break
		}
		if err != nil {
			return nil, w.state.upstream(err)
		}
		w.state.seq++
		if w.skip > 0 { // gap between windows when Step > Size
			w.skip--
			continue
		}
		w.buf = append(w.buf, t)
	}
	return nil, w.state.upstream(io.EOF)
}

// emit computes the aggregate tuple for the full buffer.
func (w *Window) emit() (*Tuple, error) {
	return w.Spec.tuple(w.bufStart, w.parts, func(a, i int) (PartialItem, error) {
		return PartialItemOf(w.buf[i], w.Spec.Aggs[a], w.bufStart+int64(i))
	})
}

// partials returns one empty Partial per aggregate.
func (s WindowSpec) partials() []*Partial {
	parts := make([]*Partial, len(s.Aggs))
	for a, agg := range s.Aggs {
		parts[a] = NewPartial(agg.Kind)
	}
	return parts
}

// tuple folds the window that starts at input ordinal start into parts,
// one Partial per aggregate reused from window to window, and builds its
// answer tuple. item(a, i) is the contribution of the window's i-th tuple
// to aggregate a.
func (s WindowSpec) tuple(start int64, parts []*Partial, item func(a, i int) (PartialItem, error)) (*Tuple, error) {
	end := start + int64(s.Size)
	names := make([]string, 0, len(s.Aggs)+2)
	vals := make([]Value, 0, len(s.Aggs)+2)
	names = append(names, "win_start", "win_end")
	vals = append(vals, Int(start), Int(end))
	for a, agg := range s.Aggs {
		p := parts[a]
		p.reset()
		for i := 0; i < s.Size; i++ {
			it, err := item(a, i)
			if err != nil {
				return nil, fmt.Errorf("window [%d, %d): %w", start, end, err)
			}
			p.Observe(it)
		}
		names = append(names, agg.name())
		vals = append(vals, BoundedVal(p.Bound()))
	}
	t, err := NewTuple(names, vals)
	if err != nil {
		return nil, fmt.Errorf("window [%d, %d): %w", start, end, err)
	}
	return t, nil
}

// slide advances the window by Step.
func (w *Window) slide() {
	step := w.Spec.step()
	if step >= len(w.buf) {
		w.skip = step - len(w.buf)
		w.buf = w.buf[:0]
	} else {
		w.buf = append(w.buf[:0], w.buf[step:]...)
	}
	w.bufStart += int64(step)
}
