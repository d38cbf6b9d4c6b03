package stats

import "runtime"

// The deterministic shard layout and driver of the parallel and
// adaptive Monte-Carlo samplers in internal/yield. A run of n
// samples is split into a fixed number of shards, shard i drawing from
// its own stream seeded seed+i, so the sample vector depends only on
// (n, seed) — never on how many workers evaluate it. Adaptive samplers
// commit the shards in plan order and may stop after any of them, so a
// stopped run returns a shard-aligned prefix of the full stream.

// planShards is the fixed shard count of the layout. Changing it changes
// every sharded sample stream.
const planShards = 16

// Shard is one deterministic sampling chunk: samples [From, End())
// drawn from the stream seeded Seed.
type Shard struct {
	From, Count int
	Seed        int64
}

// End returns one past the shard's last sample index.
func (s Shard) End() int { return s.From + s.Count }

// ShardPlan splits n samples over the fixed 16-shard layout: shard i
// holds n/16 samples, plus one while i < n%16, and is seeded seed+i.
// Empty shards (n < 16) are dropped, so every shard has Count > 0.
func ShardPlan(n int, seed int64) []Shard {
	per, rem := n/planShards, n%planShards
	plan := make([]Shard, 0, planShards)
	from := 0
	for i := range planShards {
		count := per
		if i < rem {
			count++
		}
		if count == 0 {
			continue
		}
		plan = append(plan, Shard{From: from, Count: count, Seed: seed + int64(i)})
		from += count
	}
	return plan
}

// RunShards evaluates the shards of plan with at most workers in flight
// (<=0 selects GOMAXPROCS) and commits them strictly in plan order on
// the calling goroutine: commit(plan[i]) runs once eval(plan[i]) has
// returned and every earlier shard is committed. The run ends after the
// last shard or at the first commit that returns stop or an error, whose
// error RunShards returns. Every launched shard is drained first, so no
// eval is running once RunShards returns. A nil commit runs the whole
// plan.
//
// With a commit, shards past the commit frontier are speculative — the
// run may stop before them — so at most workers shards are launched
// ahead of it. With a nil commit every shard is needed, and a worker
// takes the next shard as soon as it is free.
//
// eval calls run concurrently and must touch disjoint state — in the
// samplers, the shard's own range of a preallocated result.
func RunShards(plan []Shard, workers int, eval func(Shard), commit func(Shard) (stop bool, err error)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := len(plan)
	if commit != nil {
		window = workers
	}
	finished := make(chan int, len(plan)) // one send per shard, so none blocks
	ready := make([]bool, len(plan))
	launched, running := 0, 0
	defer func() {
		for ; running > 0; running-- {
			<-finished
		}
	}()
	for next := 0; next < len(plan); {
		for ; running < workers && launched < len(plan) && launched < next+window; launched++ {
			running++
			go func(i int) {
				eval(plan[i])
				finished <- i
			}(launched)
		}
		ready[<-finished] = true
		running--
		for ; next < len(plan) && ready[next]; next++ {
			if commit == nil {
				continue
			}
			if stop, err := commit(plan[next]); stop || err != nil {
				return err
			}
		}
	}
	return nil
}
