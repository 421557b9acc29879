// Command experiments regenerates every table and figure of the paper's
// evaluation (§6, Figures 5(a)–(l) and 6(a)–(d), plus the §6.4 function
// table) and prints them as aligned text tables.
//
// Usage:
//
//	experiments [-quick] [-run name] [-inputs n] [-seed s] [-list]
//
// With no flags the default scale runs everything (minutes). -quick trims
// the workload for a fast look; -run executes a single experiment by name
// (see -list).
package main

import (
	"flag"
	"fmt"
	"os"

	"olgapro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale")
	runName := flag.String("run", "", "run a single experiment by name")
	inputs := flag.Int("inputs", 0, "override the number of inputs per configuration")
	seed := flag.Int64("seed", 1, "random seed")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Figures)
		}
		return
	}

	sc := bench.DefaultScale()
	if *quick {
		sc = bench.QuickScale()
	}
	sc.Seed = *seed
	if *inputs > 0 {
		sc.Inputs = *inputs
	}

	if *runName != "" {
		e, err := bench.Lookup(*runName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tables, err := e.Run(sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Render(os.Stdout)
		}
		return
	}

	if err := bench.RunAll(os.Stdout, sc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
