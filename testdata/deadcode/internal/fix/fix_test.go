package fix

import "testing"

func Benchmark_warm(b *testing.B) {
	e := NewExact(Config{})
	for i := 0; i < b.N; i++ {
		e.Warm()
	}
}
