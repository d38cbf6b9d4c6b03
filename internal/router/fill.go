package router

// Peer cache fill. When the owner of a fingerprint is down, a successor
// serves the request — correct, but now the *successor's* cache holds
// the answer while the owner, once it recovers, is as cold as a fresh
// boot for exactly the keys it owns. The filler closes that gap: every
// failover-served 200 is enqueued here, and a background worker waits
// for the owner's probe to recover, then replays the answer to the
// owner's POST /v1/cache/fill. The fleet's partition re-converges
// without recomputing anything and without blocking any client request.
//
// The queue is bounded and lossy by design: a fill is an optimization,
// never a correctness requirement (the owner would simply recompute on
// the next repeat), so under pressure the router drops fills and counts
// them instead of holding request goroutines hostage.
//
// Pending fills are kept in per-owner lists, not one FIFO: a single
// queue would let one dead owner head-of-line-block fills destined for
// healthy owners for up to the whole recovery wait. The delivery worker
// sweeps the owners on every wake and delivers every job whose owner is
// currently healthy, while jobs for still-down owners simply wait in
// their own list until they recover or their deadline expires.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"vabuf/internal/server"
)

// fillJob is one pending peer cache fill.
type fillJob struct {
	owner string // backend URL whose cache went cold
	kind  string // "insert" or "yield"
	epoch string // epoch of the backend that computed the result
	// request/result are the original request and the serving backend's
	// answer, verbatim.
	request json.RawMessage
	result  json.RawMessage
	// deadline bounds how long the filler waits for the owner to
	// recover before giving the fill up.
	deadline time.Time
}

// filler owns the pending fills and their single delivery worker. One
// worker is enough: fills are tiny POSTs, and serializing them keeps a
// recovering backend from being hammered with its whole backlog at once.
type filler struct {
	prober *prober
	client *http.Client
	met    *rmetrics
	budget *retryBudget  // fills are manufactured traffic; they pay too
	wait   time.Duration // per-job recovery wait (deadline at enqueue)
	poll   time.Duration // how often to re-sweep owners between wakes
	logf   func(format string, args ...any)

	mu      sync.Mutex
	pending map[string][]fillJob // owner URL -> FIFO of its jobs
	total   int                  // jobs across all owners, bounded by cap
	cap     int

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

func newFiller(prober *prober, client *http.Client, met *rmetrics,
	budget *retryBudget, queue int, wait, poll time.Duration,
	logf func(string, ...any)) *filler {
	f := &filler{
		prober:  prober,
		client:  client,
		met:     met,
		budget:  budget,
		wait:    wait,
		poll:    poll,
		logf:    logf,
		pending: make(map[string][]fillJob),
		cap:     queue,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go f.run()
	return f
}

func (f *filler) close() {
	close(f.stop)
	<-f.done
}

// enqueue queues one fill, dropping it (counted) when the queue is full.
func (f *filler) enqueue(job fillJob) {
	job.deadline = time.Now().Add(f.wait)
	f.mu.Lock()
	if f.total >= f.cap {
		f.mu.Unlock()
		f.met.fillDropped.Inc()
		return
	}
	f.pending[job.owner] = append(f.pending[job.owner], job)
	f.total++
	f.mu.Unlock()
	f.met.fillQueued.Inc()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// retire drops every pending fill of a backend that left the ring — its
// cache keys moved with it, so the fills have nowhere useful to go.
func (f *filler) retire(owner string) {
	f.mu.Lock()
	n := len(f.pending[owner])
	delete(f.pending, owner)
	f.total -= n
	f.mu.Unlock()
	if n > 0 {
		f.met.fillDropped.Add(int64(n))
	}
}

// backlog reports the queued-but-undelivered fill count (metrics).
func (f *filler) backlog() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

func (f *filler) run() {
	defer close(f.done)
	t := time.NewTicker(f.poll)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-f.wake:
		case <-t.C:
		}
		f.sweep()
	}
}

// sweep visits every owner with pending jobs: healthy owners get their
// whole list delivered (serially), down owners only shed jobs whose
// recovery deadline passed. A dead owner never delays anyone else's
// fills — its list just sits there until its probe recovers.
func (f *filler) sweep() {
	f.mu.Lock()
	deliverable := make(map[string][]fillJob)
	now := time.Now()
	for owner, jobs := range f.pending {
		if f.prober.healthy(owner) {
			deliverable[owner] = jobs
			delete(f.pending, owner)
			f.total -= len(jobs)
			continue
		}
		kept := jobs[:0]
		expired := 0
		for _, j := range jobs {
			if now.After(j.deadline) {
				expired++
				continue
			}
			kept = append(kept, j)
		}
		if expired > 0 {
			f.total -= expired
			if len(kept) == 0 {
				delete(f.pending, owner)
			} else {
				f.pending[owner] = kept
			}
			for i := 0; i < expired; i++ {
				f.met.fillErrors.Inc(owner)
			}
		}
	}
	f.mu.Unlock()
	for _, jobs := range deliverable {
		for _, job := range jobs {
			select {
			case <-f.stop:
				return
			default:
			}
			f.deliver(job)
		}
	}
}

// deliver posts one fill to its (healthy) owner.
func (f *filler) deliver(job fillJob) {
	// A fill is pure re-warming; when the owner's budget is dry it just
	// recomputes on the next repeat instead.
	if !f.budget.spend(job.owner) {
		f.met.budgetExhausted.Inc()
		f.met.fillErrors.Inc(job.owner)
		return
	}
	f.met.attempts.Inc(job.owner)
	payload, err := json.Marshal(server.CacheFillRequest{
		Kind:    job.kind,
		Epoch:   job.epoch,
		Request: job.request,
		Result:  job.result,
	})
	if err != nil {
		f.met.fillErrors.Inc(job.owner)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		job.owner+"/v1/cache/fill", bytes.NewReader(payload))
	if err != nil {
		f.met.fillErrors.Inc(job.owner)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		f.met.fillErrors.Inc(job.owner)
		f.logf("vabufr: peer fill to %s failed: %v", job.owner, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// 409 = epoch mismatch: the owner moved to a new library
		// generation while the fill waited — exactly the stale result the
		// epoch exists to refuse. Count it and move on.
		f.met.fillErrors.Inc(job.owner)
		f.logf("vabufr: peer fill to %s refused: %s", job.owner, resp.Status)
		return
	}
	f.met.fillsSent.Inc(job.owner)
}
