package stats

import (
	"fmt"
	"math"
)

// Histogram bins scalar samples over a fixed range. It is used to compare
// Monte-Carlo sample distributions against the model-predicted normal PDFs
// (Figures 3 and 6).
type Histogram struct {
	Min, Max float64
	Counts   []int
	// Under and Over count samples falling outside [Min, Max).
	Under, Over int
	total       int
}

// NewHistogram creates a histogram with the given number of bins covering
// [min, max).
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs positive bin count, got %d", bins)
	}
	if !(max > min) {
		return nil, fmt.Errorf("stats: histogram range [%g, %g) is empty", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}, nil
}

// HistogramOf builds a histogram spanning the sample range of xs, slightly
// padded so every sample lands in a bin.
func HistogramOf(xs []float64, bins int) (*Histogram, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: histogram of empty sample")
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if lo == hi {
		lo -= 0.5
		hi += 0.5
	}
	pad := (hi - lo) * 1e-9
	h, err := NewHistogram(lo, hi+pad+math.SmallestNonzeroFloat64, bins)
	if err != nil {
		return nil, err
	}
	for _, x := range xs {
		h.Add(x)
	}
	return h, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.Min {
		h.Under++
		return
	}
	if x >= h.Max {
		h.Over++
		return
	}
	idx := int(float64(len(h.Counts)) * (x - h.Min) / (h.Max - h.Min))
	if idx >= len(h.Counts) { // guard against floating rounding at the edge
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
}

// Total returns the number of samples recorded, including out-of-range ones.
func (h *Histogram) Total() int { return h.total }

// BinWidth returns the width of one bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Max - h.Min) / float64(len(h.Counts))
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.BinWidth()
}

// PDF returns the empirical density estimate per bin: counts normalized so
// the histogram integrates to 1 over [Min, Max).
func (h *Histogram) PDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	norm := 1.0 / (float64(h.total) * h.BinWidth())
	for i, c := range h.Counts {
		out[i] = float64(c) * norm
	}
	return out
}
