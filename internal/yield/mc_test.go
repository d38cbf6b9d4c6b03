package yield

import (
	"math"
	"testing"

	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// prefixProgram compiles forms into a Design without a tree, the way
// Compile does. Slot k has Cb0 = 1 and Tb0 = 2.
func prefixProgram(space *variation.Space, forms []variation.Form) *Design {
	slots := make([]slot, len(forms))
	for k, f := range forms {
		slots[k] = slot{cb0: 1, tb0: 2, rb: 3, dev: f}
	}
	p := &Design{Tree: &rctree.Program{}, Space: space, slots: slots}
	p.index()
	return p
}

// sameBits reports whether a and b are bit-identical or both NaN. Go
// does not specify which payload an add of two NaNs keeps, and the
// compiler may swap the operands of a commutative add, so two inlined
// copies of Form.Eval can already disagree on it.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// prefixBitsEqual reports whether f and g have terms and equal prefixes:
// the same term count, nominal bits, and source IDs and coefficient bits
// of every term but the last.
func prefixBitsEqual(f, g variation.Form) bool {
	if len(f.Terms) == 0 || len(f.Terms) != len(g.Terms) ||
		math.Float64bits(f.Nominal) != math.Float64bits(g.Nominal) {
		return false
	}
	for i := 0; i < len(f.Terms)-1; i++ {
		a, b := f.Terms[i], g.Terms[i]
		if a.ID != b.ID || math.Float64bits(a.Coef) != math.Float64bits(b.Coef) {
			return false
		}
	}
	return true
}

// checkPrefixProgram draws n samples from p in blocks of 1, 2, 4, 8 and
// then Lanes samples, and fails unless every lane's deviation, C and T
// equal what a plain dev.Eval gives on the full-space draw of its
// sample, bit for bit up to NaN payloads, and unless every pair of
// slots with equal non-empty prefixes shares one prefix.
func checkPrefixProgram(t *testing.T, p *Design, n int, seed int64) {
	t.Helper()
	for a := range p.slots {
		sa := &p.slots[a]
		for b := range p.slots {
			sb := &p.slots[b]
			equal := prefixBitsEqual(sa.dev, sb.dev)
			if equal != (sa.pre >= 0 && sa.pre == sb.pre) && a != b {
				t.Fatalf("slots %d and %d: prefixes equal %v, shared as %d and %d",
					a, b, equal, sa.pre, sb.pre)
			}
		}
	}
	s := p.Sampler(seed)
	draws := variation.NewDraws(seed)
	var src []float64
	dev := make([]float64, Lanes)
	for i0 := 0; i0 < n; {
		m := min(n-i0, 1+i0%Lanes)
		s.Block(i0, m)
		for k := range p.slots {
			sl := &p.slots[k]
			s.deviation(k, dev[:m])
			bufs := s.Buffers(k)
			for b := range m {
				i := i0 + b
				src = p.Space.Sample(draws, i, src)
				want := sl.dev.Eval(src)
				if got := dev[b]; !sameBits(got, want) {
					t.Fatalf("sample %d slot %d: deviation %v (%#x), Eval %v (%#x)",
						i, k, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				c, tt := sl.cb0*(1+want), sl.tb0*(1+want)
				if !sameBits(bufs[b].C, c) || !sameBits(bufs[b].T, tt) {
					t.Fatalf("sample %d slot %d: C, T = %v, %v, want %v, %v", i, k, bufs[b].C, bufs[b].T, c, tt)
				}
			}
		}
		i0 += m
	}
}

// prefixSpace holds four unit sources and one of sigma 0, which samples
// as +0 or -0 and so exposes signed-zero differences.
func prefixSpace() *variation.Space {
	space := variation.NewSpace()
	for i := 0; i < 4; i++ {
		space.Add(variation.ClassRandom, 1)
	}
	space.Add(variation.ClassRandom, 0)
	return space
}

func form(nominal float64, terms ...variation.Term) variation.Form {
	return variation.Form{Nominal: nominal, Terms: terms}
}

func tm(id variation.SourceID, coef float64) variation.Term {
	return variation.Term{ID: id, Coef: coef}
}

func TestSharedPrefixMatchesEval(t *testing.T) {
	negZero := math.Copysign(0, -1)
	c := 0.3
	cUp := math.Nextafter(c, 1)
	cases := []struct {
		name   string
		forms  []variation.Form
		shared int
	}{
		{"zero-term", []variation.Form{form(0), form(0), form(1.5)}, 0},
		{"one-term", []variation.Form{
			form(0.5, tm(1, 2)), form(0.5, tm(2, -1)), form(0.25, tm(1, 2)),
		}, 1},
		{"last-term-differs", []variation.Form{
			form(0, tm(0, c), tm(1, 0.7), tm(2, 0.1)),
			form(0, tm(0, c), tm(1, 0.7), tm(3, 0.1)),
			form(0, tm(0, c), tm(1, 0.7), tm(2, -0.9)),
			form(0, tm(0, c), tm(1, 0.7)),
		}, 1},
		{"signed-zero-nominal", []variation.Form{
			form(0, tm(4, 0), tm(4, 1)), form(negZero, tm(4, 0), tm(4, 1)),
			form(0, tm(4, 0), tm(4, 1)),
		}, 1},
		{"signed-zero-coef", []variation.Form{
			form(negZero, tm(0, 0), tm(4, 1)), form(negZero, tm(0, negZero), tm(4, 1)),
			form(negZero, tm(0, negZero), tm(4, 2)),
		}, 1},
		{"one-ulp-coef", []variation.Form{
			form(0, tm(0, c), tm(1, 0.5), tm(2, 1)), form(0, tm(0, cUp), tm(1, 0.5), tm(2, 1)),
			form(0, tm(0, c), tm(1, 0.5), tm(3, 1)),
		}, 1},
		{"same-coefs-other-source", []variation.Form{
			form(0, tm(0, c), tm(2, 1)), form(0, tm(1, c), tm(2, 1)),
		}, 0},
		{"near-equal-mix", []variation.Form{
			form(0, tm(0, c), tm(1, 1)), form(0, tm(0, cUp), tm(1, 1)),
			form(0, tm(0, c), tm(2, 1)), form(0, tm(1, c), tm(2, 1)),
			form(negZero, tm(0, c), tm(2, 1)), form(0, tm(0, c), tm(3, 1)),
			form(1), form(1, tm(0, c)),
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := prefixProgram(prefixSpace(), tc.forms)
			if len(p.shared) != tc.shared {
				t.Errorf("%d shared prefixes, want %d", len(p.shared), tc.shared)
			}
			checkPrefixProgram(t, p, 64, 3)
		})
	}
}

// TestSharedPrefixModels checks the pinned nets: the heterogeneous model
// gives every site its own spatial sigma and shares nothing, the
// homogeneous one shares the prefix of every grid cell holding two or
// more buffers, and both sample exactly as Form.Eval.
func TestSharedPrefixModels(t *testing.T) {
	for ni, n := range pinnedNets(t) {
		p, err := CompileMC(n.tree, n.lib, n.assign, nil, n.model)
		if err != nil {
			t.Fatal(err)
		}
		heterogeneous := n.model.Config.Heterogeneous
		if heterogeneous != (len(p.shared) == 0) {
			t.Errorf("net %d (heterogeneous %v): %d shared prefixes over %d slots",
				ni, heterogeneous, len(p.shared), len(p.slots))
		}
		checkPrefixProgram(t, p, 32, int64(ni))
	}
}

// FuzzSharedPrefixEval decodes forms from data: a source count, then per
// form a nominal, a term count and (source, coefficient) pairs, with
// values from a palette of signed zeros, one-ULP neighbours, subnormals,
// infinities and NaN. Property: every sampled deviation, C and T equal
// Form.Eval's
// bit for bit (NaN payloads aside, see sameBits), and every two slots
// with equal prefixes share one.
func FuzzSharedPrefixEval(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 3, 2, 4, 0, 2, 1, 3, 2, 5}, int64(1))
	f.Add([]byte{4, 1, 1, 0, 6, 1, 1, 0, 7, 2, 0, 3, 3, 8, 0}, int64(2))
	f.Add([]byte{2, 9, 3, 0, 10, 1, 11, 0, 2, 9, 3, 0, 10, 1, 11, 1, 3}, int64(3))
	palette := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, math.Nextafter(0.1, 1), 0.7,
		-2.5, 4.9e-324, math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		nsrc := 1 + int(data[0])%6
		space := variation.NewSpace()
		for i := 0; i < nsrc; i++ {
			space.Add(variation.ClassRandom, float64(i%3))
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		data = data[1:]
		var forms []variation.Form
		for len(data) > 0 && len(forms) < 64 {
			fm := variation.Form{Nominal: palette[next()%len(palette)]}
			for n := next() % 6; n > 0; n-- {
				id := variation.SourceID(next() % nsrc)
				fm.Terms = append(fm.Terms, variation.Term{ID: id, Coef: palette[next()%len(palette)]})
			}
			forms = append(forms, fm)
		}
		checkPrefixProgram(t, prefixProgram(space, forms), 4, seed)
	})
}
