// Package wire is the shared input codec for every external entry point of
// the system: it turns outside descriptions of uncertain data — JSON
// distribution specs arriving over the network, catalog rows loaded from
// CSV — into the dist.Dist / query.Tuple values the engines consume.
// internal/server (the HTTP service), cmd/olgapro, and the experiment
// harness all construct their tuples through this package, so one set of
// validation and construction semantics covers the whole surface instead of
// each binary growing its own copy.
package wire

import (
	"fmt"
	"slices"
	"strconv"

	"olgapro/internal/dist"
	"olgapro/internal/query"
)

// DistSpec is the wire (JSON) form of one uncertain scalar attribute. Type
// selects the family; the family's parameter fields apply and the rest are
// ignored:
//
//	{"type":"normal",      "mu":5.0, "sigma":0.5}
//	{"type":"uniform",     "lo":0,   "hi":1}
//	{"type":"gamma",       "shape":2.2, "scale":0.09, "loc":0.01}
//	{"type":"exponential", "rate":3}
//	{"type":"constant",    "value":42}
//	{"type":"mixture",     "weights":[1,3], "components":[...]}
type DistSpec struct {
	Type string `json:"type"`

	// Normal.
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Uniform.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Gamma.
	Shape float64 `json:"shape,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Loc   float64 `json:"loc,omitempty"`
	// Exponential.
	Rate float64 `json:"rate,omitempty"`
	// Constant.
	Value float64 `json:"value,omitempty"`
	// Mixture.
	Weights    []float64  `json:"weights,omitempty"`
	Components []DistSpec `json:"components,omitempty"`
}

// Dist validates the spec and builds the distribution it describes. A
// spec whose samples could overflow float64 is refused
// (dist.SamplesFinite): no input may feed ±Inf into the emulator.
func (s DistSpec) Dist() (dist.Dist, error) { return s.dist(nil) }

// dist is Dist building a scalar family into a's storage, or boxing it
// when a is nil.
func (s *DistSpec) dist(a *Dists) (dist.Dist, error) {
	d, err := s.build(a)
	if err == nil && !dist.SamplesFinite(d) {
		return nil, fmt.Errorf("wire: %s spec can draw non-finite samples; its parameters are too large in magnitude", s.Type)
	}
	return d, err
}

func (s *DistSpec) build(a *Dists) (dist.Dist, error) {
	switch s.Type {
	case "normal":
		if !(s.Sigma > 0) {
			return nil, fmt.Errorf("wire: normal needs sigma > 0, got %g", s.Sigma)
		}
		d := dist.Normal{Mu: s.Mu, Sigma: s.Sigma}
		if a != nil {
			return push(&a.normal, a.want[0], d), nil
		}
		return d, nil
	case "uniform":
		if !(s.Hi > s.Lo) {
			return nil, fmt.Errorf("wire: uniform needs hi > lo, got [%g, %g]", s.Lo, s.Hi)
		}
		d := dist.Uniform{A: s.Lo, B: s.Hi}
		if a != nil {
			return push(&a.uniform, a.want[1], d), nil
		}
		return d, nil
	case "gamma":
		if !(s.Shape > 0) || !(s.Scale > 0) {
			return nil, fmt.Errorf("wire: gamma needs shape > 0 and scale > 0, got %g/%g", s.Shape, s.Scale)
		}
		d := dist.Gamma{K: s.Shape, Theta: s.Scale, Loc: s.Loc}
		if a != nil {
			return push(&a.gamma, a.want[2], d), nil
		}
		return d, nil
	case "exponential":
		if !(s.Rate > 0) {
			return nil, fmt.Errorf("wire: exponential needs rate > 0, got %g", s.Rate)
		}
		d := dist.Exponential{Rate: s.Rate}
		if a != nil {
			return push(&a.exponential, a.want[3], d), nil
		}
		return d, nil
	case "constant":
		d := dist.Constant{V: s.Value}
		if a != nil {
			return push(&a.constant, a.want[4], d), nil
		}
		return d, nil
	case "mixture":
		if len(s.Components) == 0 {
			return nil, fmt.Errorf("wire: mixture needs at least one component")
		}
		comps := make([]dist.Dist, len(s.Components))
		for i, cs := range s.Components {
			c, err := cs.Dist()
			if err != nil {
				return nil, fmt.Errorf("wire: mixture component %d: %w", i, err)
			}
			comps[i] = c
		}
		return dist.NewMixture(s.Weights, comps...)
	case "":
		return nil, fmt.Errorf("wire: distribution spec missing \"type\"")
	default:
		return nil, fmt.Errorf("wire: unknown distribution type %q (want normal, uniform, gamma, exponential, constant, or mixture)", s.Type)
	}
}

// Dists is storage for built input distributions: one typed array per
// scalar family, so a distribution built into it is a pointer to its
// array entry and building it boxes no value. A mixture is built as Dist
// builds it. The pointers stay valid while a is not Reset; an array that
// outgrows its capacity is copied, and the entries already built keep
// pointing into the old one.
type Dists struct {
	normal      []dist.Normal
	uniform     []dist.Uniform
	gamma       []dist.Gamma
	exponential []dist.Exponential
	constant    []dist.Constant
	want        [5]int // reserved entries per family, in the order above
}

// Reserve makes room for in's scalar specs on top of what earlier calls
// reserved, so that building every reserved spec makes one array per
// family.
func (a *Dists) Reserve(in InputSpec) {
	for i := range in {
		if f := slices.Index(scalarTypes[:], in[i].Type); f >= 0 {
			a.want[f]++
		}
	}
}

// Reset empties a for reuse: every distribution built into it before is
// overwritten by the next ones built.
func (a *Dists) Reset() {
	a.normal, a.uniform, a.gamma = a.normal[:0], a.uniform[:0], a.gamma[:0]
	a.exponential, a.constant = a.exponential[:0], a.constant[:0]
	a.want = [5]int{}
}

// push appends v to arr, growing it to want entries when it is full, and
// returns a pointer to the new entry.
func push[T any](arr *[]T, want int, v T) *T {
	if len(*arr) == cap(*arr) {
		*arr = slices.Grow(*arr, max(want-len(*arr), 1))
	}
	*arr = append(*arr, v)
	return &(*arr)[len(*arr)-1]
}

// SpecOf is the inverse of Dist: the wire form of a scalar distribution.
// It covers every family DistSpec can express, as a value or as a pointer
// into Dists storage.
func SpecOf(d dist.Dist) (DistSpec, error) {
	switch dd := d.(type) {
	case dist.Normal:
		return DistSpec{Type: "normal", Mu: dd.Mu, Sigma: dd.Sigma}, nil
	case *dist.Normal:
		return DistSpec{Type: "normal", Mu: dd.Mu, Sigma: dd.Sigma}, nil
	case dist.Uniform:
		return DistSpec{Type: "uniform", Lo: dd.A, Hi: dd.B}, nil
	case *dist.Uniform:
		return DistSpec{Type: "uniform", Lo: dd.A, Hi: dd.B}, nil
	case dist.Gamma:
		return DistSpec{Type: "gamma", Shape: dd.K, Scale: dd.Theta, Loc: dd.Loc}, nil
	case *dist.Gamma:
		return DistSpec{Type: "gamma", Shape: dd.K, Scale: dd.Theta, Loc: dd.Loc}, nil
	case dist.Exponential:
		return DistSpec{Type: "exponential", Rate: dd.Rate}, nil
	case *dist.Exponential:
		return DistSpec{Type: "exponential", Rate: dd.Rate}, nil
	case dist.Constant:
		return DistSpec{Type: "constant", Value: dd.V}, nil
	case *dist.Constant:
		return DistSpec{Type: "constant", Value: dd.V}, nil
	case *dist.Mixture:
		s := DistSpec{Type: "mixture"}
		for i := 0; i < dd.Components(); i++ {
			c, w := dd.Component(i)
			cs, err := SpecOf(c)
			if err != nil {
				return DistSpec{}, fmt.Errorf("wire: mixture component %d: %w", i, err)
			}
			s.Components = append(s.Components, cs)
			s.Weights = append(s.Weights, w)
		}
		return s, nil
	default:
		return DistSpec{}, fmt.Errorf("wire: cannot encode distribution type %T", d)
	}
}

// InputSpec is the wire form of a whole uncertain input tuple: one spec per
// UDF input dimension, treated as independent attributes (the paper's
// per-attribute measurement-error model).
type InputSpec []DistSpec

// AppendDists validates the spec and appends its per-dimension
// distributions to dst, building the scalar ones into a (see Dists), or
// boxing them when a is nil.
func (in InputSpec) AppendDists(dst []dist.Dist, a *Dists) ([]dist.Dist, error) {
	for i := range in {
		d, err := in[i].dist(a)
		if err != nil {
			return dst, fmt.Errorf("wire: input[%d]: %w", i, err)
		}
		dst = append(dst, d)
	}
	return dst, nil
}

// Vector builds the joint input distribution.
func (in InputSpec) Vector() (dist.Vector, error) {
	comps, err := in.AppendDists(make([]dist.Dist, 0, len(in)), nil)
	if err != nil {
		return nil, err
	}
	v := new(dist.Independent)
	v.SetComponents(comps)
	return v, nil
}

// Attr returns the canonical name of input dimension i ("x0", "x1", …).
func Attr(i int) string { return "x" + strconv.Itoa(i) }

// AttrNames returns the canonical input attribute names for a d-input UDF —
// the Inputs list handed to query.ApplyUDF / exec.Pool.Apply for tuples
// built by UncertainTuple or InputSpec.Tuple.
func AttrNames(d int) []string {
	names := make([]string, d)
	for i := range names {
		names[i] = Attr(i)
	}
	return names
}

// UncertainTuple builds the canonical relation tuple for an uncertain input:
// an integer "id" plus the given per-dimension distributions under the
// canonical attribute names.
func UncertainTuple(id int64, attrs ...dist.Dist) *query.Tuple {
	names := make([]string, 0, len(attrs)+1)
	vals := make([]query.Value, 0, len(attrs)+1)
	names = append(names, "id")
	vals = append(vals, query.Int(id))
	for i, d := range attrs {
		names = append(names, Attr(i))
		vals = append(vals, query.Uncertain(d))
	}
	return query.MustTuple(names, vals)
}

// Tuple validates the spec and builds its canonical relation tuple with the
// given id.
func (in InputSpec) Tuple(id int64) (*query.Tuple, error) {
	attrs, err := in.AppendDists(make([]dist.Dist, 0, len(in)), nil)
	if err != nil {
		return nil, err
	}
	return UncertainTuple(id, attrs...), nil
}
