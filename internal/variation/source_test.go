package variation

import (
	"math"
	"testing"

	"vabuf/internal/stats"
)

func TestSpaceAddAndLookup(t *testing.T) {
	s := NewSpace()
	a := s.Add(ClassRandom, 1)
	b := s.Add(ClassSpatial, 2)
	c := s.Add(ClassInterDie, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if a != 0 || b != 1 || c != 2 {
		t.Errorf("IDs not dense: %d %d %d", a, b, c)
	}
	src := s.Source(b)
	if src.Class != ClassSpatial || src.Sigma != 2 {
		t.Errorf("Source(b) = %+v", src)
	}
	if s.Sigma(c) != 3 {
		t.Errorf("Sigma(c) = %g", s.Sigma(c))
	}
	counts := s.CountByClass()
	if counts[ClassRandom] != 1 || counts[ClassSpatial] != 1 || counts[ClassInterDie] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestAddNegativeSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative sigma did not panic")
		}
	}()
	NewSpace().Add(ClassRandom, -1)
}

func TestClassString(t *testing.T) {
	if ClassRandom.String() != "random" ||
		ClassSpatial.String() != "spatial" ||
		ClassInterDie.String() != "inter-die" {
		t.Error("Class.String labels wrong")
	}
	if Class(99).String() == "" {
		t.Error("unknown class produced empty string")
	}
}

func TestSampleMoments(t *testing.T) {
	s := NewSpace()
	s.Add(ClassRandom, 1)
	s.Add(ClassRandom, 4)
	draws := NewDraws(99)
	const n = 100000
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	var buf []float64
	for i := 0; i < n; i++ {
		buf = s.Sample(draws, i, buf)
		xs = append(xs, buf[0])
		ys = append(ys, buf[1])
	}
	m0, v0 := stats.MeanVar(xs)
	m1, v1 := stats.MeanVar(ys)
	if math.Abs(m0) > 0.02 || math.Abs(m1) > 0.06 {
		t.Errorf("sample means = %g, %g, want ~0", m0, m1)
	}
	if math.Abs(v0-1) > 0.03 {
		t.Errorf("sample var source 0 = %g, want 1", v0)
	}
	if math.Abs(v1-16) > 0.5 {
		t.Errorf("sample var source 1 = %g, want 16", v1)
	}
	// Independence.
	r, err := stats.Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.02 {
		t.Errorf("sources correlated: %g", r)
	}
}

func TestSampleReusesBuffer(t *testing.T) {
	s := NewSpace()
	s.Add(ClassRandom, 1)
	s.Add(ClassRandom, 1)
	buf := make([]float64, 10)
	out := s.Sample(NewDraws(1), 0, buf)
	if len(out) != 2 {
		t.Errorf("sample len = %d", len(out))
	}
	if &out[0] != &buf[0] {
		t.Error("Sample reallocated despite sufficient capacity")
	}
}

func TestFormSamplingMatchesAnalyticMoments(t *testing.T) {
	// End-to-end: the analytic Var of a form equals the sample variance of
	// its evaluations.
	s := NewSpace()
	a := s.Add(ClassRandom, 1)
	b := s.Add(ClassRandom, 2)
	f := NewForm(10, []Term{{a, 3}, {b, -1}})
	draws := NewDraws(5)
	const n = 200000
	vals := make([]float64, 0, n)
	var buf []float64
	for i := 0; i < n; i++ {
		buf = s.Sample(draws, i, buf)
		vals = append(vals, f.Eval(buf))
	}
	m, v := stats.MeanVar(vals)
	if math.Abs(m-10) > 0.05 {
		t.Errorf("sampled mean = %g, want 10", m)
	}
	if want := f.Var(s); math.Abs(v-want)/want > 0.03 {
		t.Errorf("sampled var = %g, want %g", v, want)
	}
}
