package stats

import (
	"errors"
	"math"
)

// ErrLength is returned when paired-sample metrics receive slices of
// different lengths.
var ErrLength = errors.New("stats: sample slices have different lengths")

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 when either series has zero variance (the paper's
// convention: a flat series carries no trend information). It returns
// ErrLength when the series lengths differ and an error for fewer than two
// points.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLength
	}
	n := len(x)
	if n < 2 {
		return 0, errors.New("stats: Pearson needs at least two points")
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, nil
	}
	return cov / math.Sqrt(vx*vy), nil
}

// PctError returns the absolute percentage error of got relative to want,
// in percent. When want is zero the error is 0 if got is also zero and
// 100 otherwise; this bounds the metric for near-empty miss-rate bins.
func PctError(want, got float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 100
	}
	return math.Abs(got-want) / math.Abs(want) * 100
}

// AbsError returns |got-want| expressed in percentage points when the two
// inputs are rates in [0,1]. Cache papers (including G-MAP) typically
// report miss-rate error this way for very small rates; we expose both.
func AbsError(want, got float64) float64 {
	return math.Abs(got-want) * 100
}

// MeanAbsPctError returns the mean of PctError over paired samples.
func MeanAbsPctError(want, got []float64) (float64, error) {
	if len(want) != len(got) {
		return 0, ErrLength
	}
	if len(want) == 0 {
		return 0, errors.New("stats: empty sample")
	}
	var sum float64
	for i := range want {
		sum += PctError(want[i], got[i])
	}
	return sum / float64(len(want)), nil
}

// Mean returns the arithmetic mean of xs, and 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var v float64
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return math.Sqrt(v / float64(len(xs)))
}

// HistDistance returns the total variation distance between two histograms
// viewed as probability distributions: 0 means identical shape, 1 means
// disjoint support. It is used in tests to assert that proxy streams
// reproduce profiled distributions.
func HistDistance(a, b *Histogram) float64 {
	if a.Total() == 0 && b.Total() == 0 {
		return 0
	}
	if a.Total() == 0 || b.Total() == 0 {
		return 1
	}
	keys := make(map[int64]struct{}, a.Len()+b.Len())
	for _, k := range a.Keys() {
		keys[k] = struct{}{}
	}
	for _, k := range b.Keys() {
		keys[k] = struct{}{}
	}
	var d float64
	for k := range keys {
		d += math.Abs(a.Freq(k) - b.Freq(k))
	}
	return d / 2
}

// Summary holds descriptive statistics of a float series; it is used by the
// evaluation harness when reporting per-benchmark aggregate rows.
type Summary struct {
	N    int
	Mean float64
	Min  float64
	Max  float64
	Std  float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = Mean(xs)
	s.Std = StdDev(xs)
	return s
}
