package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps the smoke tests fast.
func tinyScale() Scale { return Scale{Seed: 1, Inputs: 3, Truth: 2000} }

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "Fig X",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Fig X", "demo", "a note", "333"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFdur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Millisecond, "1500"},
		{25 * time.Millisecond, "25.0"},
		{1500 * time.Microsecond, "1.500"},
	}
	for _, c := range cases {
		if got := fdur(c.d); got != c.want {
			t.Errorf("fdur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig5a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestExperimentsHaveUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil || e.Figures == "" {
			t.Fatalf("experiment %q incomplete", e.Name)
		}
	}
	if len(seen) < 13 {
		t.Fatalf("only %d experiments registered", len(seen))
	}
}

// Smoke: every experiment runs at tiny scale and produces non-empty tables.
// Full-scale tables come from cmd/experiments.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke suite skipped in -short mode")
	}
	sc := tinyScale()
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tables, err := e.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Fatalf("table %s has no rows", tbl.ID)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Columns) {
						t.Fatalf("table %s: row width %d ≠ %d cols", tbl.ID, len(row), len(tbl.Columns))
					}
				}
			}
		})
	}
}

// Shape check on the cheapest discriminative experiment: Fig 5(a) must show
// F4 harder to fit than F1 at small n.
func TestFig5aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	tbl, err := Fig5a(Scale{Seed: 1, Inputs: 2, Truth: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is n=25: F1 error (col 1) should be well below F4 error (col 4).
	f1, err1 := strconv.ParseFloat(tbl.Rows[0][1], 64)
	f4, err2 := strconv.ParseFloat(tbl.Rows[0][4], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable cells: %v %v", tbl.Rows[0][1], tbl.Rows[0][4])
	}
	if f1 >= f4 {
		t.Fatalf("F1 error %g not below F4 error %g at n=25", f1, f4)
	}
}
