package stats

import (
	"runtime"
	"sync"
)

// The chunk layout and worker split of the Monte-Carlo samplers in
// internal/yield. Their streams are keyed (variation.Draws): sample i's
// values depend only on (seed, i), so any worker may compute any range
// and the sample vector never depends on how it was split. ShardPlan
// fixes the chunks at which an adaptive sampler may stop, and RunShards
// spreads one range over the workers.

// planShards is the fixed chunk count of the layout. Changing it moves
// the points where an adaptive run may stop.
const planShards = 16

// Shard is the range of sample indices [From, End()).
type Shard struct {
	From, Count int
}

// End returns one past the shard's last sample index.
func (s Shard) End() int { return s.From + s.Count }

// ShardPlan splits n samples into the fixed 16-chunk layout: chunk i
// holds n/16 samples, plus one while i < n%16. Empty chunks (n < 16) are
// dropped, so every chunk has Count > 0.
func ShardPlan(n int) []Shard {
	return split(Shard{Count: n}, planShards)
}

// split cuts sh into at most parts contiguous ranges whose counts differ
// by at most one, the longer ones first, dropping empty ones.
func split(sh Shard, parts int) []Shard {
	per, rem := sh.Count/parts, sh.Count%parts
	out := make([]Shard, 0, min(parts, sh.Count))
	from := sh.From
	for i := range parts {
		count := per
		if i < rem {
			count++
		}
		if count == 0 {
			break
		}
		out = append(out, Shard{From: from, Count: count})
		from += count
	}
	return out
}

// RunShards splits sh into at most workers contiguous ranges (<=0
// selects GOMAXPROCS), runs eval on each concurrently, one on the
// calling goroutine, and returns once every eval has returned. eval
// calls must touch disjoint state — in the samplers, the range's own
// slots of a preallocated result.
func RunShards(sh Shard, workers int, eval func(Shard)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts := split(sh, workers)
	if len(parts) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, part := range parts[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eval(part)
		}()
	}
	eval(parts[0])
	wg.Wait()
}
