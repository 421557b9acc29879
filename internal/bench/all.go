package bench

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Experiment is a named, runnable reproduction of one or more paper
// figures/tables.
type Experiment struct {
	Name    string // short id, e.g. "fig5a"
	Figures string // which paper artifacts it regenerates
	Run     func(Scale) ([]*Table, error)
}

// one wraps a single-table experiment function.
func one(f func(Scale) (*Table, error)) func(Scale) ([]*Table, error) {
	return func(sc Scale) ([]*Table, error) {
		t, err := f(sc)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// two wraps a two-table experiment function.
func two(f func(Scale) (*Table, *Table, error)) func(Scale) ([]*Table, error) {
	return func(sc Scale) ([]*Table, error) {
		a, b, err := f(sc)
		if err != nil {
			return nil, err
		}
		return []*Table{a, b}, nil
	}
}

// Experiments returns the full registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "fig5a", Figures: "Fig 5(a)", Run: one(Fig5a)},
		{Name: "fig5b", Figures: "Fig 5(b)", Run: one(Fig5b)},
		{Name: "profile3", Figures: "Profile 3 (§6.2)", Run: one(TableP3)},
		{Name: "fig5cd", Figures: "Fig 5(c), 5(d)", Run: two(Fig5cd)},
		{Name: "fig5e", Figures: "Fig 5(e)", Run: one(Fig5e)},
		{Name: "fig5fg", Figures: "Fig 5(f), 5(g)", Run: two(Fig5fg)},
		{Name: "fig5h", Figures: "Fig 5(h)", Run: one(Fig5h)},
		{Name: "fig5i", Figures: "Fig 5(i)", Run: one(Fig5i)},
		{Name: "fig5jk", Figures: "Fig 5(j), 5(k)", Run: two(Fig5jk)},
		{Name: "fig5l", Figures: "Fig 5(l)", Run: one(Fig5l)},
		{Name: "table64", Figures: "§6.4 function table", Run: one(TableCaseStudy)},
		{Name: "ablation1", Figures: "design ablation: incremental updates", Run: one(AblationIncremental)},
		{Name: "ablation2", Figures: "design ablation: sub-box γ refinement", Run: one(AblationSubBoxes)},
		{Name: "ablation3", Figures: "design ablation: guarded filtering", Run: one(AblationFilterVerify)},
		{Name: "fig6a", Figures: "Fig 6(a)", Run: one(Fig6a)},
		{Name: "fig6bcd", Figures: "Fig 6(b), 6(c), 6(d)", Run: Fig6bcd},
	}
}

// Lookup returns the experiment with the given name.
func Lookup(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", name, names)
}

// RunAll executes every experiment, rendering tables to w as they finish.
func RunAll(w io.Writer, sc Scale) error {
	for _, e := range Experiments() {
		start := time.Now()
		tables, err := e.Run(sc)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", e.Name, err)
		}
		for _, t := range tables {
			t.Render(w)
		}
		fmt.Fprintf(w, "-- %s (%s) completed in %s --\n\n", e.Name, e.Figures, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
