package stats

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestShardPlan(t *testing.T) {
	const seed = 40
	for _, n := range []int{1, 5, 15, 16, 17, 100, 1601} {
		plan := ShardPlan(n, seed)
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
			if sh.Seed != seed+int64(i) {
				t.Errorf("n=%d shard %d: seed %d, want %d", n, i, sh.Seed, seed+int64(i))
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
	if plan := ShardPlan(0, seed); len(plan) != 0 {
		t.Errorf("n=0: %d shards, want none", len(plan))
	}
}

// shardProbe evaluates a 16-shard plan with evals that finish in reverse
// plan order, recording what a caller of RunShards could observe: which
// evals finished, how many ran at once, and whether any was still
// running when a commit or the return happened.
type shardProbe struct {
	t        *testing.T
	seed     int64
	plan     []Shard
	out      []int // out[s] = 1 once sample s's shard has been evaluated
	finished []atomic.Bool
	running  atomic.Int32
	peak     atomic.Int32
	evals    atomic.Int32
}

func newShardProbe(t *testing.T) *shardProbe {
	const seed = 100
	plan := ShardPlan(160, seed)
	return &shardProbe{t: t, seed: seed, plan: plan, out: make([]int, 160),
		finished: make([]atomic.Bool, len(plan))}
}

func (p *shardProbe) index(sh Shard) int { return int(sh.Seed - p.seed) }

func (p *shardProbe) eval(sh Shard) {
	now := p.running.Add(1)
	for {
		peak := p.peak.Load()
		if now <= peak || p.peak.CompareAndSwap(peak, now) {
			break
		}
	}
	p.evals.Add(1)
	// Later shards sleep less, so any lookahead finishes out of order.
	time.Sleep(time.Duration(len(p.plan)-p.index(sh)) * 300 * time.Microsecond)
	for s := sh.From; s < sh.End(); s++ {
		p.out[s] = 1
	}
	p.finished[p.index(sh)].Store(true)
	p.running.Add(-1)
}

// checkDrained fails unless no eval is running and every launched shard
// has written its samples; the plain reads of out race with any eval
// still in flight, which -race reports.
func (p *shardProbe) checkDrained(label string) {
	p.t.Helper()
	if n := p.running.Load(); n != 0 {
		p.t.Errorf("%s: %d evals still running after return", label, n)
	}
	written := 0
	for _, v := range p.out {
		written += v
	}
	launched := 0
	for i := range p.finished {
		if p.finished[i].Load() {
			launched += p.plan[i].Count
		}
	}
	if written != launched || int(p.evals.Load()) > len(p.plan) {
		p.t.Errorf("%s: %d samples written by %d evals, %d finished", label, written, p.evals.Load(), launched)
	}
}

func TestRunShardsCommitsInPlanOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := newShardProbe(t)
		var order []int
		err := RunShards(p.plan, workers, p.eval, func(sh Shard) (bool, error) {
			i := p.index(sh)
			if !p.finished[i].Load() {
				t.Errorf("workers=%d: shard %d committed before its eval returned", workers, i)
			}
			order = append(order, i)
			return false, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(order) != len(p.plan) {
			t.Fatalf("workers=%d: %d commits, want %d", workers, len(order), len(p.plan))
		}
		for k, i := range order {
			if i != k {
				t.Fatalf("workers=%d: commit order %v", workers, order)
			}
		}
		if peak := p.peak.Load(); peak > int32(workers) {
			t.Errorf("workers=%d: %d evals in flight at once", workers, peak)
		}
		p.checkDrained("full run")
	}
}

func TestRunShardsStopDrains(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, k := range []int{0, 5, 15} {
			p := newShardProbe(t)
			commits := 0
			err := RunShards(p.plan, workers, p.eval, func(sh Shard) (bool, error) {
				commits++
				return p.index(sh) == k, nil
			})
			if err != nil {
				t.Fatalf("workers=%d stop=%d: %v", workers, k, err)
			}
			if commits != k+1 {
				t.Errorf("workers=%d stop=%d: %d commits, want %d", workers, k, commits, k+1)
			}
			if n := int(p.evals.Load()); n > min(k+workers, len(p.plan)) {
				t.Errorf("workers=%d stop=%d: %d shards evaluated past the lookahead window", workers, k, n)
			}
			p.checkDrained("stopped run")
		}
	}
}

func TestRunShardsCommitErrorAfterDrain(t *testing.T) {
	boom := errors.New("boom")
	p := newShardProbe(t)
	commits := 0
	err := RunShards(p.plan, 4, p.eval, func(sh Shard) (bool, error) {
		commits++
		if p.index(sh) == 2 {
			return false, boom
		}
		return false, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want %v", err, boom)
	}
	if commits != 3 {
		t.Errorf("%d commits, want 3", commits)
	}
	p.checkDrained("failed run")
}

func TestRunShardsNilCommit(t *testing.T) {
	for _, workers := range []int{0, 1, 5} {
		p := newShardProbe(t)
		if err := RunShards(p.plan, workers, p.eval, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n := int(p.evals.Load()); n != len(p.plan) {
			t.Errorf("workers=%d: %d evals, want %d", workers, n, len(p.plan))
		}
		if peak := p.peak.Load(); workers > 0 && peak > int32(workers) {
			t.Errorf("workers=%d: %d evals in flight at once", workers, peak)
		}
		for s, v := range p.out {
			if v != 1 {
				t.Fatalf("workers=%d: sample %d never written", workers, s)
			}
		}
		p.checkDrained("nil commit")
	}
}
