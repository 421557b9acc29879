// Command fixture is the caller side of the dead-code guard's fixture: the
// only non-test code that uses package fix.
package main

import (
	"fmt"

	"fixture/internal/fix"
)

func main() {
	e := fix.NewExact(fix.Config{Warm: 2})
	e.Fit([]float64{1, 2})
	for _, m := range []fix.Model{e, fix.NewSparse()} {
		fmt.Println(m.Predict(1), m.Dim())
	}
	fmt.Println(fix.Lines([]string{"a", "b"}))
}
