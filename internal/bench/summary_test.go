package bench

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Min != 42 || s.Max != 42 || s.Median != 42 {
		t.Fatalf("bad summary: %+v", s)
	}
	if s.Stddev != 0 {
		t.Fatalf("Stddev of single sample = %v, want 0", s.Stddev)
	}
	if s.CI95() != 0 {
		t.Fatalf("CI95 of single sample = %v, want 0", s.CI95())
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	// 2, 4, 4, 4, 5, 5, 7, 9: mean 5, population sd 2, sample sd ~2.138
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.Mean != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean)
	}
	if !approx(s.Stddev, 2.13809, 1e-4) {
		t.Fatalf("Stddev = %v, want ~2.138", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
	if !approx(s.Median, 4.5, 1e-12) {
		t.Fatalf("Median = %v, want 4.5", s.Median)
	}
}

func TestMedianOdd(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Fatalf("Median = %v, want 5", s.Median)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty sample")
		}
	}()
	Summarize(nil)
}

func TestRelStddevZeroMean(t *testing.T) {
	s := Summarize([]float64{0, 0, 0})
	if s.RelStddev() != 0 {
		t.Fatalf("RelStddev = %v, want 0", s.RelStddev())
	}
}

func TestStringIncludesN(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if !strings.Contains(s.String(), "n=3") {
		t.Fatalf("String() = %q, want n=3 marker", s.String())
	}
}

func TestSummaryProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw)+1)
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		xs = append(xs, 1) // never empty
		s := Summarize(xs)
		if s.Min > s.Mean+1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if s.Median < s.Min-1e-9 || s.Median > s.Max+1e-9 {
			return false
		}
		return s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
