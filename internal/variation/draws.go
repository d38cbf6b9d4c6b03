package variation

import "math/rand/v2"

// The Monte-Carlo stream is keyed: the unit-normal value of source j in
// sample i is a pure function of (seed, i, j), in the style of the
// counter-based generators of Salmon et al., "Parallel Random Numbers:
// As Easy as 1, 2, 3" (SC'11). A sampler therefore draws only the
// sources its forms reference, in any order, and any worker can produce
// any sample index: a run split over workers, or stopped early, reads
// the same values as one serial run.
//
// Each value resets a SplitMix64 counter (Steele, Lea and Flood,
// OOPSLA'14) to a state derived from the key and runs math/rand/v2's
// ziggurat NormFloat64 on it. The per-sample key is SplitMix64's output
// at counter i of the mixed seed; the source's state is that key with
// j·srcMul folded in, and the counter's output mix decorrelates
// neighbouring states. The ziggurat takes one word in over 99% of draws;
// a rejected step reads the counter's next word, which coincides with
// another (i, j)'s state only by a 2⁻⁶⁴-scale accident.

const (
	// gamma is SplitMix64's counter increment (2⁶⁴/φ, odd).
	gamma = 0x9e3779b97f4a7c15
	// srcMul spreads source IDs over the state bits before the XOR.
	srcMul = 0xd1342543de82ef95
	// seedSalt keeps seed 0 off the all-zero state.
	seedSalt = 0x5851f42d4c957f2d
)

// mix64 is SplitMix64's output function (Stafford's Mix13).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitMix is a SplitMix64 counter, a math/rand/v2 Source.
type splitMix struct{ state uint64 }

// Uint64 advances the counter and returns the mix of its state.
func (s *splitMix) Uint64() uint64 {
	s.state += gamma
	return mix64(s.state)
}

// Draws reads the keyed stream of one seed. It holds the counter and a
// current sample, so it is not safe for concurrent use; give each
// goroutine its own. Values never depend on which Draws read them.
type Draws struct {
	seed uint64
	key  uint64 // the current sample's key
	ctr  splitMix
	rng  *rand.Rand
}

// NewDraws returns a reader of the keyed stream of seed, positioned at
// sample 0.
func NewDraws(seed int64) *Draws {
	d := &Draws{seed: mix64(uint64(seed) ^ seedSalt)}
	d.rng = rand.New(&d.ctr)
	d.Seek(0)
	return d
}

// Seek positions the reader at sample i.
func (d *Draws) Seek(i int) { d.key = mix64(d.seed + uint64(i)*gamma) }

// Next returns the unit-normal value of source j in the current sample.
func (d *Draws) Next(j SourceID) float64 {
	d.ctr.state = d.key ^ uint64(j)*srcMul
	return d.rng.NormFloat64()
}
