package variation

import (
	"math/rand"
	"testing"
)

// benchForms builds two canonical forms sharing half their sources — the
// typical shape of the DP hot path, where sibling candidates carry mostly
// overlapping source sets.
func benchForms(nTerms int) (Form, Form, *Space) {
	space := NewSpace()
	rng := rand.New(rand.NewSource(42))
	shared := make([]Term, nTerms/2)
	for i := range shared {
		shared[i] = Term{ID: space.Add(ClassRandom, 1), Coef: rng.Float64()}
	}
	mk := func() Form {
		terms := append([]Term(nil), shared...)
		for i := 0; i < nTerms-len(shared); i++ {
			terms = append(terms, Term{ID: space.Add(ClassRandom, 1), Coef: rng.Float64()})
		}
		return NewForm(rng.Float64()*100, terms)
	}
	return mk(), mk(), space
}

func benchmarkAXPY(b *testing.B, nTerms int) {
	f, g, _ := benchForms(nTerms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkForm = f.AXPY(-0.5, g)
	}
}

func benchmarkAXPYIn(b *testing.B, nTerms int) {
	f, g, _ := benchForms(nTerms)
	a := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 1023 {
			// Recycle so the arena footprint stays bounded; Get/Put on the
			// slab pool is part of the cost being measured.
			a.Release()
			a = NewArena()
		}
		sinkForm = f.AXPYIn(a, -0.5, g)
	}
}

func BenchmarkAXPY8(b *testing.B)    { benchmarkAXPY(b, 8) }
func BenchmarkAXPY64(b *testing.B)   { benchmarkAXPY(b, 64) }
func BenchmarkAXPYIn8(b *testing.B)  { benchmarkAXPYIn(b, 8) }
func BenchmarkAXPYIn64(b *testing.B) { benchmarkAXPYIn(b, 64) }
func BenchmarkMin64(b *testing.B)    { benchmarkMin(b, false) }
func BenchmarkMinIn64(b *testing.B)  { benchmarkMin(b, true) }

func benchmarkSigmaDiff(b *testing.B, nTerms int) {
	f, g, space := benchForms(nTerms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = SigmaDiff(f, g, space)
	}
}

func BenchmarkSigmaDiff8(b *testing.B)  { benchmarkSigmaDiff(b, 8) }
func BenchmarkSigmaDiff64(b *testing.B) { benchmarkSigmaDiff(b, 64) }

// sinkForm defeats dead-code elimination of the benchmarked expressions.
var sinkForm Form

// sinkFloat defeats dead-code elimination of scalar benchmark results.
var sinkFloat float64

func benchmarkMin(b *testing.B, arena bool) {
	f, g, space := benchForms(64)
	var a *Arena
	if arena {
		a = NewArena()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a != nil && i%1024 == 1023 {
			a.Release()
			a = NewArena()
		}
		sinkForm = MinIn(a, f, g, space).Form
	}
}
