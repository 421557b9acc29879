package olgapro

// One benchmark per table and figure of the paper's evaluation (§6). Each
// benchmark regenerates the corresponding artifact through the experiment
// harness at a reduced scale; run `go run ./cmd/experiments` for the
// full-scale tables.

import (
	"testing"

	"olgapro/internal/bench"
)

// benchScale keeps the full `go test -bench=.` sweep tractable; the shapes
// are the same as DefaultScale, only noisier.
func benchScale() bench.Scale {
	return bench.Scale{Seed: 1, Inputs: 4, Truth: 4000}
}

func runFigure(b *testing.B, name string) {
	b.Helper()
	e, err := bench.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig5a regenerates Fig. 5(a): GP function-fitting accuracy vs. n.
func BenchmarkFig5a(b *testing.B) { runFigure(b, "fig5a") }

// BenchmarkFig5b regenerates Fig. 5(b): error bound vs. actual error vs. λ.
func BenchmarkFig5b(b *testing.B) { runFigure(b, "fig5b") }

// BenchmarkProfile3 regenerates the §6.2 error-allocation profile.
func BenchmarkProfile3(b *testing.B) { runFigure(b, "profile3") }

// BenchmarkFig5cd regenerates Fig. 5(c)+(d): local inference accuracy/time.
func BenchmarkFig5cd(b *testing.B) { runFigure(b, "fig5cd") }

// BenchmarkFig5e regenerates Fig. 5(e): online tuning point placement.
func BenchmarkFig5e(b *testing.B) { runFigure(b, "fig5e") }

// BenchmarkFig5fg regenerates Fig. 5(f)+(g): retraining strategies.
func BenchmarkFig5fg(b *testing.B) { runFigure(b, "fig5fg") }

// BenchmarkFig5h regenerates Fig. 5(h): time vs. accuracy requirement ε.
func BenchmarkFig5h(b *testing.B) { runFigure(b, "fig5h") }

// BenchmarkFig5i regenerates Fig. 5(i): GP vs. MC across UDF eval time T.
func BenchmarkFig5i(b *testing.B) { runFigure(b, "fig5i") }

// BenchmarkFig5jk regenerates Fig. 5(j)+(k): online filtering time/accuracy.
func BenchmarkFig5jk(b *testing.B) { runFigure(b, "fig5jk") }

// BenchmarkFig5l regenerates Fig. 5(l): time vs. function dimensionality.
func BenchmarkFig5l(b *testing.B) { runFigure(b, "fig5l") }

// BenchmarkTable64 regenerates the §6.4 case-study function table.
func BenchmarkTable64(b *testing.B) { runFigure(b, "table64") }

// BenchmarkFig6a regenerates Fig. 6(a): AngDist output PDF.
func BenchmarkFig6a(b *testing.B) { runFigure(b, "fig6a") }

// BenchmarkFig6bcd regenerates Fig. 6(b)+(c)+(d): GP vs. MC on astro UDFs.
func BenchmarkFig6bcd(b *testing.B) { runFigure(b, "fig6bcd") }

// BenchmarkAblation1 measures incremental vs. batch model updates (A1).
func BenchmarkAblation1(b *testing.B) { runFigure(b, "ablation1") }

// BenchmarkAblation2 measures the sub-box γ-bound refinement (A2).
func BenchmarkAblation2(b *testing.B) { runFigure(b, "ablation2") }

// BenchmarkAblation3 measures guarded vs. unguarded filtering (A3).
func BenchmarkAblation3(b *testing.B) { runFigure(b, "ablation3") }
