package bench

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample: the paper runs each
// configuration five times and reports the average; the harness also
// reports spread so EXPERIMENTS.md can record measurement noise.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It panics on an empty sample, since a
// benchmark trial set of size zero always indicates a harness bug.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("bench: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// CI95 returns the half-width of an approximate 95% confidence interval for
// the mean, using the normal critical value (1.96); with the five trials the
// harness runs, this is a rough but useful error bar.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Stddev / math.Sqrt(float64(s.N))
}

// RelStddev returns the coefficient of variation (stddev/mean), or 0 when the
// mean is 0.
func (s Summary) RelStddev() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Stddev / s.Mean
}

// String formats the summary as "mean ± ci95 (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95(), s.N)
}
