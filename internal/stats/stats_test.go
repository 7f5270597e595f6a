package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Observe(v)
	}
	if s.N() != 5 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("basics: n=%d min=%v max=%v", s.N(), s.Min(), s.Max())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Median() != 3 {
		t.Fatalf("median = %v", s.Median())
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Quantile(0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	want := math.Sqrt(2) // population stddev of 1..5
	if got := s.Stddev(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("stddev = %v, want %v", got, want)
	}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 || s.Stddev() != 0 {
		t.Fatal("empty summary should return zeros")
	}
}

func TestSummaryInterpolation(t *testing.T) {
	var s Summary
	s.Observe(0)
	s.Observe(10)
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("interpolated median = %v", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1f, q2f float64) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Observe(v)
		}
		q1 := math.Abs(math.Mod(q1f, 1))
		q2 := math.Abs(math.Mod(q2f, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && a >= s.Min() && b <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean is within [min, max].
func TestMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		var s Summary
		n := 0
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			s.Observe(v)
			n++
		}
		if n == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-6 && m <= s.Max()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
