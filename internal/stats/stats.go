// Package stats provides the small measurement toolkit the experiment
// harness uses: counters and streaming summaries
// (min/mean/max/percentiles) without external dependencies.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count, safe for concurrent
// use.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Summary accumulates samples and reports order statistics. It stores
// samples (the experiments record at most tens of thousands), trading
// memory for exact percentiles.
type Summary struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
	sum     float64
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	s.samples = append(s.samples, v)
	s.sorted = false
	s.sum += v
	s.mu.Unlock()
}

// N returns the sample count.
func (s *Summary) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Mean returns the arithmetic mean (0 with no samples).
func (s *Summary) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min returns the smallest sample (0 with no samples).
func (s *Summary) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureSorted()
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[0]
}

// Max returns the largest sample (0 with no samples).
func (s *Summary) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureSorted()
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[len(s.samples)-1]
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation.
func (s *Summary) Quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureSorted()
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s.samples[0]
	}
	if q >= 1 {
		return s.samples[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.samples[lo]
	}
	frac := pos - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// Median is Quantile(0.5).
func (s *Summary) Median() float64 { return s.Quantile(0.5) }

// Stddev returns the population standard deviation.
func (s *Summary) Stddev() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.sum / float64(n)
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// String renders a one-line summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3g p50=%.3g mean=%.3g p95=%.3g max=%.3g",
		s.N(), s.Min(), s.Median(), s.Mean(), s.Quantile(0.95), s.Max())
}

// ensureSorted must be called with s.mu held.
func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}
