package server

import (
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"vabuf/internal/metric"
)

// jobClass is the scheduling class of a queued job. Interactive requests
// (the default) are dispatched ahead of sweep work; sweep is the class
// of batch items and of any request that sets "priority": "sweep".
type jobClass int

const (
	classInteractive jobClass = iota
	classSweep
	numClasses
)

var classNames = [numClasses]string{"interactive", "sweep"}

// className maps a request priority string to its class. normalize has
// already validated the string, so anything but "sweep" is interactive.
func classFor(priority string) jobClass {
	if priority == "sweep" {
		return classSweep
	}
	return classInteractive
}

// queuedJob is one waiting pool job with its admission timestamp, so
// dispatch can record per-class queue-wait latency.
type queuedJob struct {
	fn       func()
	class    jobClass
	enqueued time.Time
}

// classState is the per-class half of the priority queue: a FIFO of
// waiting jobs plus its counters. Everything is guarded by workerPool.mu,
// including inFlight — a dequeue moves a job from the FIFO into inFlight
// under one critical section, so depth (queued + in-flight) can never
// transiently read low between the two.
type classState struct {
	queued     []queuedJob
	capacity   int
	inFlight   int
	rejected   int64
	dispatched int64
	// expired counts dequeued jobs dropped without running because their
	// deadline passed (or their client vanished) while they waited —
	// doomed work the pool refused to burn a worker on. The job's queue
	// wait was already observed at dequeue.
	expired metric.Counter
	// wait observes queue-wait latency (ms) for every admission outcome:
	// dispatched jobs their true wait, expired jobs the wait that doomed
	// them, and rejected submissions a 0 — so the histogram count always
	// equals admissions + rejections and drops are visible in it.
	wait metric.Histogram
}

// workerPool runs insertion jobs on a fixed set of goroutines fed by a
// two-class priority queue. Dispatch prefers the interactive class;
// every sweepEvery-th dispatch prefers sweep instead, so bulk batches
// make progress even under sustained interactive load (starvation
// guard). When a class's queue is full, trySubmit refuses immediately —
// the server answers 429 with Retry-After instead of queuing unboundedly
// and melting under load.
type workerPool struct {
	mu         sync.Mutex
	cond       *sync.Cond
	classes    [numClasses]classState
	closed     bool
	dispatches int64
	// panics counts jobs that panicked all the way to the worker loop —
	// the backstop recover. Server-submitted jobs recover (and answer a
	// structured 500) inside their own closure, so this stays zero unless
	// a raw pool submission escapes its own guard.
	panics metric.Counter
	// saturatedSince is the start of the current saturation episode: set
	// when a submit is refused with a full queue, cleared lazily once both
	// class queues have free slots again. The server's shed gate compares
	// its age against Config.ShedAfter.
	saturatedSince time.Time

	wg         sync.WaitGroup
	workers    int
	sweepEvery int
}

// newWorkerPool starts workers goroutines (<1 selects GOMAXPROCS) behind
// an interactive queue of depth waiting slots and a sweep queue of
// sweepDepth slots. Every sweepEvery-th dispatch prefers the sweep
// class (<=1 disables the preference and sweep runs only when the
// interactive queue is empty).
func newWorkerPool(workers, depth, sweepDepth, sweepEvery int) *workerPool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth < 0 {
		depth = 0
	}
	if sweepDepth < 0 {
		sweepDepth = 0
	}
	p := &workerPool{
		workers:    workers,
		sweepEvery: sweepEvery,
	}
	p.cond = sync.NewCond(&p.mu)
	p.classes[classInteractive].capacity = depth
	p.classes[classSweep].capacity = sweepDepth
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.run()
	}
	return p
}

func (p *workerPool) run() {
	defer p.wg.Done()
	for {
		job, ok := p.next()
		if !ok {
			return
		}
		p.runJob(job)
		p.finish(job.class)
	}
}

// runJob executes one dequeued job under a backstop recover: a panic
// kills the job, never the worker. The pool stays at full strength and
// keeps draining the queue.
func (p *workerPool) runJob(job queuedJob) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Inc()
			log.Printf("worker: recovered panic in %s job: %v\n%s",
				classNames[job.class], r, debug.Stack())
		}
	}()
	job.fn()
}

// next blocks until a job is available and dequeues it, or reports false
// when the pool is closed and drained. The dequeue and the in-flight
// increment happen under one lock, so depth() is always exact.
func (p *workerPool) next() (queuedJob, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if n := len(p.classes[classInteractive].queued) + len(p.classes[classSweep].queued); n == 0 {
			if p.closed {
				return queuedJob{}, false
			}
			p.cond.Wait()
			continue
		}
		p.dispatches++
		class := classInteractive
		if p.sweepEvery > 1 && p.dispatches%int64(p.sweepEvery) == 0 {
			class = classSweep
		}
		if len(p.classes[class].queued) == 0 {
			class = numClasses - 1 - class
		}
		st := &p.classes[class]
		job := st.queued[0]
		st.queued[0] = queuedJob{} // release the closure for GC
		st.queued = st.queued[1:]
		st.inFlight++
		st.dispatched++
		st.wait.Observe(time.Since(job.enqueued))
		return job, true
	}
}

func (p *workerPool) finish(class jobClass) {
	p.mu.Lock()
	p.classes[class].inFlight--
	p.mu.Unlock()
}

// trySubmit enqueues job under the given class, reporting false when
// that class's queue is full or the pool has begun closing (a job
// admitted after the workers exit would never run — refusing lets the
// caller answer the request instead of hanging on it).
func (p *workerPool) trySubmit(job func(), class jobClass) bool {
	p.mu.Lock()
	st := &p.classes[class]
	if p.closed || len(st.queued) >= st.capacity {
		st.rejected++
		st.wait.Observe(0) // rejected work never waited, but is counted
		if !p.closed && p.saturatedSince.IsZero() {
			p.saturatedSince = time.Now()
		}
		p.mu.Unlock()
		return false
	}
	st.queued = append(st.queued, queuedJob{fn: job, class: class, enqueued: time.Now()})
	p.mu.Unlock()
	p.cond.Signal()
	return true
}

// saturatedFor reports how long the queues have been saturated: the age
// of the saturation mark set by the first refused submit, or zero once
// both class queues have free slots again (the episode ends as soon as
// backlog drains, even if no new submit arrives to observe it).
func (p *workerPool) saturatedFor() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.saturatedSince.IsZero() {
		return 0
	}
	full := false
	for c := range p.classes {
		if len(p.classes[c].queued) >= p.classes[c].capacity {
			full = true
			break
		}
	}
	if !full {
		p.saturatedSince = time.Time{}
		return 0
	}
	return time.Since(p.saturatedSince)
}

// expiredTotal is the number of dequeued-but-dropped jobs across classes.
func (p *workerPool) expiredTotal() int64 {
	return p.classes[classInteractive].expired.Load() + p.classes[classSweep].expired.Load()
}

// close stops accepting work and blocks until every queued and in-flight
// job has finished (the drain step of graceful shutdown).
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// depth is the number of queued plus in-flight jobs across both classes.
// Dequeues move jobs between the two counts under the pool lock, so the
// gauge is exact — it can never transiently read low.
func (p *workerPool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for c := range p.classes {
		n += len(p.classes[c].queued) + p.classes[c].inFlight
	}
	return n
}

// queuedLen is the number of waiting (not yet dispatched) jobs of one
// class. Tests use it to synchronize on enqueue.
func (p *workerPool) queuedLen(class jobClass) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.classes[class].queued)
}

// capacity is the number of interactive waiting slots (the historical
// single-queue figure; per-class capacities are in classSnapshot).
func (p *workerPool) capacity() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.classes[classInteractive].capacity
}

// rejectedTotal is the number of refused submissions across both classes.
func (p *workerPool) rejectedTotal() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.classes[classInteractive].rejected + p.classes[classSweep].rejected
}

// classSnapshot assembles the per-class /metrics block: queue depth
// split into queued/in-flight, capacity, rejected and dispatched
// counters, and the queue-wait latency histogram.
func (p *workerPool) classSnapshot() map[string]any {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]any, numClasses)
	for c := range p.classes {
		st := &p.classes[c]
		out[classNames[c]] = map[string]any{
			"queued":     len(st.queued),
			"in_flight":  st.inFlight,
			"depth":      len(st.queued) + st.inFlight,
			"capacity":   st.capacity,
			"rejected":   st.rejected,
			"dispatched": st.dispatched,
			"expired":    &st.expired,
			"wait_ms":    &st.wait,
		}
	}
	return out
}
