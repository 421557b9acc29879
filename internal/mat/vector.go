package mat

import (
	"fmt"
	"math"
)

// Dot returns the dot product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: dot length %d ≠ %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled accumulation avoids overflow for large components.
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Dist2 returns the Euclidean distance between x and y.
func Dist2(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: dist length %d ≠ %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between x and y.
func SqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: sqdist length %d ≠ %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: axpy length %d ≠ %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies every element of x by a in place.
func ScaleVec(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}
