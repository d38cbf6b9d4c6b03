package router

// Retry budget. Every retry the router sends — a failover hop after the
// first attempt, a hedged duplicate, a synchronous peer lookup — is
// traffic the client did not send. Under a partial outage that extra
// traffic is exactly what turns a brownout into a retry storm: each
// backend failure mints more requests against the survivors. The
// budget bounds it Finagle-style: each backend has a token bucket that
// earns a fraction of a token (the ratio, default 10%) for every *first*
// attempt routed to it and pays one whole token for every extra request
// sent to it. When a bucket is dry the router stops manufacturing
// traffic for that backend and surfaces the best answer it already has.
//
// Buckets start full (at the burst cap) so a fresh router can still fail
// over before any credit has accrued, and they are keyed by backend URL
// like every other piece of router state, so membership churn never
// renumbers anyone's balance.

import "sync"

// retryBudget is the per-backend token-bucket set. A nil *retryBudget
// (budget disabled by config) allows everything.
type retryBudget struct {
	mu     sync.Mutex
	ratio  float64 // tokens credited per first attempt
	burst  float64 // bucket cap, also the initial balance
	tokens map[string]float64
}

func newRetryBudget(ratio float64, burst int) *retryBudget {
	return &retryBudget{
		ratio:  ratio,
		burst:  float64(burst),
		tokens: make(map[string]float64),
	}
}

// bucket returns the balance entry of a backend, creating it full.
// Callers must hold b.mu.
func (b *retryBudget) bucket(url string) float64 {
	t, ok := b.tokens[url]
	if !ok {
		t = b.burst
		b.tokens[url] = t
	}
	return t
}

// credit earns ratio tokens for one first attempt routed to url.
func (b *retryBudget) credit(url string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	t := b.bucket(url) + b.ratio
	if t > b.burst {
		t = b.burst
	}
	b.tokens[url] = t
	b.mu.Unlock()
}

// spend pays one token for an extra request (retry, hedge, lookup)
// about to be sent to url, reporting false when the bucket is dry — the
// caller must not send.
func (b *retryBudget) spend(url string) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.bucket(url)
	if t < 1 {
		return false
	}
	b.tokens[url] = t - 1
	return true
}

// retire forgets a backend that left the ring.
func (b *retryBudget) retire(url string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	delete(b.tokens, url)
	b.mu.Unlock()
}
