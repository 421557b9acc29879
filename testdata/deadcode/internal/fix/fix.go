// Package fix holds one declaration of each shape the dead-code guard must
// judge by what a use resolves to, not by its name. A name-based guard
// passes (a)–(c): each name also names live code.
package fix

import "io"

// Model predicts; its implementations' methods are live through it.
type Model interface {
	Predict(x float64) float64
	Dim() int
}

// Config sets an Exact up.
type Config struct{ Warm int }

// Exact is a live model.
type Exact struct{ n int }

// NewExact returns an Exact warmed by cfg.Warm points.
func NewExact(cfg Config) *Exact { return &Exact{n: cfg.Warm} }

// Fit is live: the command calls it.
func (e *Exact) Fit(xs []float64) { e.n += len(xs) }

func (e *Exact) Predict(x float64) float64 { return x * float64(e.n) }

func (e *Exact) Dim() int { return 1 }

// Warm is called only by Benchmark_warm; Config.Warm shares its name: (a).
func (e *Exact) Warm() { e.n++ }

// Sparse is a live model.
type Sparse struct{ n int }

// NewSparse returns an empty Sparse.
func NewSparse() *Sparse { return &Sparse{} }

// Fit is called by nothing; the live Exact.Fit shares its name: (b).
func (s *Sparse) Fit(xs []float64) { s.n = len(xs) / 2 }

func (s *Sparse) Predict(x float64) float64 { return x / float64(s.n+1) }

func (s *Sparse) Dim() int { return 1 }

// Slow is named only as the receiver of its own methods, which Model would
// keep live if a Slow were ever made: (c).
type Slow struct{ M Model }

func (s Slow) Predict(x float64) float64 { return s.M.Predict(x) }

func (s Slow) Dim() int { return s.M.Dim() }

// Source is a generic stream, as exec.Source is.
type Source[T any] interface{ Next() (T, error) }

// Drain reads src to its end and returns how many items it gave.
func Drain[T any](src Source[T]) int {
	for n := 0; ; n++ {
		if _, err := src.Next(); err != nil {
			return n
		}
	}
}

// lineIter feeds lines to Drain; its Next is live only as the method of a
// Source[string]: (d).
type lineIter struct{ lines []string }

func (it *lineIter) Next() (string, error) {
	if len(it.lines) == 0 {
		return "", io.EOF
	}
	line := it.lines[0]
	it.lines = it.lines[1:]
	return line, nil
}

// Lines counts lines through Drain.
func Lines(lines []string) int { return Drain[string](&lineIter{lines: lines}) }
