package variation

import (
	"math"
	"testing"

	"vabuf/internal/stats"
)

// drawAt returns the value of source j in sample i of seed's stream.
func drawAt(seed int64, i int, j SourceID) float64 {
	d := NewDraws(seed)
	d.Seek(i)
	return d.Next(j)
}

func TestDrawsPinnedValue(t *testing.T) {
	// A change to the key schedule, the counter or the normal transform
	// changes every Monte-Carlo stream; it must show here first.
	const want = 0x4005a6a06c0cc480
	if got := drawAt(7, 3, 11); math.Float64bits(got) != want {
		t.Errorf("seed 7, sample 3, source 11: %v (%#x), want %v (%#x)",
			got, math.Float64bits(got), math.Float64frombits(want), uint64(want))
	}
}

// TestDrawsArePure checks that a value depends only on (seed, i, j):
// not on the reader, nor on what it read before.
func TestDrawsArePure(t *testing.T) {
	d := NewDraws(42)
	for _, k := range []struct {
		i int
		j SourceID
	}{{0, 0}, {5, 3}, {0, 0}, {1 << 20, 1316}, {5, 3}, {2, 0}} {
		d.Seek(k.i)
		d.Next(k.j + 1) // history the next value must not see
		if got, want := d.Next(k.j), drawAt(42, k.i, k.j); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("sample %d source %d: %v after other reads, %v fresh", k.i, k.j, got, want)
		}
	}
	if drawAt(1, 0, 0) == drawAt(2, 0, 0) {
		t.Error("seeds 1 and 2 start with the same value")
	}
}

// TestDrawsMoments checks that each source's values over many samples
// are unit normal: mean, variance, and a Kolmogorov–Smirnov distance
// far inside the 0.1% critical value of 1.95/√n.
func TestDrawsMoments(t *testing.T) {
	const n = 100000
	d := NewDraws(3)
	xs := make([]float64, n)
	for _, j := range []SourceID{0, 1, 2, 63, 1000, 1 << 30} {
		for i := range xs {
			d.Seek(i)
			xs[i] = d.Next(j)
		}
		m, v := stats.MeanVar(xs)
		// 4.5 standard errors of each moment.
		if math.Abs(m) > 4.5/math.Sqrt(n) || math.Abs(v-1) > 4.5*math.Sqrt(2.0/n) {
			t.Errorf("source %d: mean %.5f, variance %.5f", j, m, v)
		}
		ks, err := stats.KSNormal(xs, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ks > 1.95/math.Sqrt(n) {
			t.Errorf("source %d: KS distance %.5f from N(0, 1)", j, ks)
		}
	}
}

// TestDrawsAdjacentKeysUncorrelated checks the correlation of values at
// neighbouring keys — (i, j) against (i, j+1), and (i, j) against
// (i+1, j) — and of the same key under neighbouring seeds: each must be
// within 4.5 standard errors (4.5/√n) of zero.
func TestDrawsAdjacentKeysUncorrelated(t *testing.T) {
	const n = 50000
	d := NewDraws(11)
	e := NewDraws(12)
	a, b := make([]float64, n), make([]float64, n)
	pairs := []struct {
		name string
		fill func(k int)
	}{
		{"(i,j)/(i,j+1)", func(k int) {
			d.Seek(k)
			a[k], b[k] = d.Next(SourceID(k%7)), d.Next(SourceID(k%7+1))
		}},
		{"(i,j)/(i+1,j)", func(k int) {
			j := SourceID(k % 5)
			d.Seek(2 * k)
			a[k] = d.Next(j)
			d.Seek(2*k + 1)
			b[k] = d.Next(j)
		}},
		{"(i,j) at the same i over j", func(k int) {
			d.Seek(9)
			a[k], b[k] = d.Next(SourceID(2*k)), d.Next(SourceID(2*k+1))
		}},
		{"seed/seed+1", func(k int) {
			d.Seek(k)
			e.Seek(k)
			a[k], b[k] = d.Next(4), e.Next(4)
		}},
	}
	for _, p := range pairs {
		for k := 0; k < n; k++ {
			p.fill(k)
		}
		r, err := stats.Correlation(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r) > 4.5/math.Sqrt(n) {
			t.Errorf("%s: correlation %.5f", p.name, r)
		}
	}
}
