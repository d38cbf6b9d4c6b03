package stats

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestShardPlan(t *testing.T) {
	for _, n := range []int{1, 5, 15, 16, 17, 100, 1601} {
		plan := ShardPlan(n)
		if want := min(n, 16); len(plan) != want {
			t.Fatalf("n=%d: %d shards, want %d", n, len(plan), want)
		}
		from := 0
		for i, sh := range plan {
			if sh.Count <= 0 {
				t.Errorf("n=%d shard %d: empty shard kept", n, i)
			}
			if sh.From != from {
				t.Errorf("n=%d shard %d: starts at %d, want %d", n, i, sh.From, from)
			}
			if c := plan[0].Count - sh.Count; c < 0 || c > 1 {
				t.Errorf("n=%d shard %d: %d samples against %d in shard 0", n, i, sh.Count, plan[0].Count)
			}
			from = sh.End()
		}
		if from != n {
			t.Errorf("n=%d: shard counts sum to %d", n, from)
		}
	}
	if plan := ShardPlan(0); len(plan) != 0 {
		t.Errorf("n=0: %d shards, want none", len(plan))
	}
}

// splitProbe records what RunShards does with one range: how often each
// sample index was evaluated, the parts it was cut into, and how many
// evals ran at once. Later parts sleep less, so they finish first.
type splitProbe struct {
	sh      Shard
	hits    []int32 // hits[s-sh.From] counts evals covering sample s
	parts   chan indexed
	running atomic.Int32
	peak    atomic.Int32
}

// indexed is one part RunShards passed to eval, with its index.
type indexed struct {
	k  int
	sh Shard
}

func newSplitProbe(sh Shard) *splitProbe {
	return &splitProbe{sh: sh, hits: make([]int32, sh.Count), parts: make(chan indexed, sh.Count+1)}
}

func (p *splitProbe) eval(k int, part Shard) {
	now := p.running.Add(1)
	for {
		peak := p.peak.Load()
		if now <= peak || p.peak.CompareAndSwap(peak, now) {
			break
		}
	}
	time.Sleep(time.Duration(p.sh.End()-part.From) * 20 * time.Microsecond)
	for s := part.From; s < part.End(); s++ {
		p.hits[s-p.sh.From]++
	}
	p.parts <- indexed{k, part}
	p.running.Add(-1)
}

// TestRunShardsSplitsRange checks that every sample of the range is
// evaluated exactly once, by at most workers evals of near-equal,
// contiguous, non-empty parts indexed 0, 1, ... in sample order, with
// none still running on return; the
// plain reads of hits race with any eval still in flight, which -race
// reports. workers <= 0 selects GOMAXPROCS.
func TestRunShardsSplitsRange(t *testing.T) {
	for _, sh := range []Shard{{From: 0, Count: 1}, {From: 7, Count: 3}, {From: 2048, Count: 2048}, {From: 5, Count: 161}} {
		for _, workers := range []int{0, 1, 2, 3, 8} {
			p := newSplitProbe(sh)
			RunShards(sh, workers, p.eval)
			if n := p.running.Load(); n != 0 {
				t.Errorf("%+v workers=%d: %d evals still running after return", sh, workers, n)
			}
			for i, h := range p.hits {
				if h != 1 {
					t.Fatalf("%+v workers=%d: sample %d evaluated %d times", sh, workers, sh.From+i, h)
				}
			}
			close(p.parts)
			parts := make([]Shard, len(p.parts))
			for part := range p.parts {
				if part.k < 0 || part.k >= len(parts) || parts[part.k].Count != 0 {
					t.Fatalf("%+v workers=%d: part index %d of %d repeated or out of range", sh, workers, part.k, len(parts))
				}
				parts[part.k] = part.sh
			}
			for k := 1; k < len(parts); k++ {
				if parts[k].From != parts[k-1].End() {
					t.Errorf("%+v workers=%d: part %d starts at %d, part %d ends at %d",
						sh, workers, k, parts[k].From, k-1, parts[k-1].End())
				}
			}
			limit := workers
			if workers <= 0 {
				limit = 1 << 20
			}
			if len(parts) > min(limit, sh.Count) || int(p.peak.Load()) > len(parts) {
				t.Errorf("%+v workers=%d: %d parts, %d at once", sh, workers, len(parts), p.peak.Load())
			}
			if workers > 0 && len(parts) != min(workers, sh.Count) {
				t.Errorf("%+v workers=%d: %d parts, want %d", sh, workers, len(parts), min(workers, sh.Count))
			}
			lo, hi := sh.Count, 0
			for _, part := range parts {
				lo, hi = min(lo, part.Count), max(hi, part.Count)
			}
			if lo <= 0 || hi-lo > 1 {
				t.Errorf("%+v workers=%d: part sizes %d..%d", sh, workers, lo, hi)
			}
		}
	}
	RunShards(Shard{From: 3}, 4, func(int, Shard) { t.Error("eval called on an empty range") })
}
