package server

// Request-deadline propagation. A client that gave itself a timeout
// tells the fleet about it: bufins mints a Vabuf-Deadline-Ms header from
// its -timeout, vabufr decrements it per hop (queue and transit time
// eat into it naturally — the forwarded value is the *remaining* budget
// at send time), and vabufd enforces it at three points:
//
//   - admission: a request whose budget is already spent is refused with
//     504 before it touches a cache or the queue (deadline_rejected);
//   - dequeue: a job whose deadline passed while it waited in the queue
//     is dropped without running (deadline_expired) — the client has
//     already timed out, running the DP would only burn a worker;
//   - mid-run: the deadline lives on the request context, which
//     Options.Context threads into the DP, so a run that outlives its
//     budget cancels at the next pruning checkpoint.
//
// The header is milliseconds-remaining rather than an absolute
// timestamp so it never depends on clock agreement between hops.

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader carries the remaining request budget in integer
// milliseconds. Absent or malformed means "no deadline"; zero or
// negative means "already expired".
const DeadlineHeader = "Vabuf-Deadline-Ms"

// DeadlineFromHeader parses the propagated deadline. ok reports whether
// a parseable value was present; remaining may be <= 0 (doomed work).
// Values beyond what a time.Duration holds (~292 years) clamp to its
// limits rather than wrap around to the opposite sign.
func DeadlineFromHeader(h http.Header) (remaining time.Duration, ok bool) {
	v := h.Get(DeadlineHeader)
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, false
	}
	const limit = math.MaxInt64 / int64(time.Millisecond)
	switch {
	case ms > limit:
		return math.MaxInt64, true
	case ms < -limit:
		return math.MinInt64, true
	}
	return time.Duration(ms) * time.Millisecond, true
}

// SetDeadlineHeader stamps the remaining budget of ctx's deadline onto
// h, clamping to at least 1ms so "expired" stays the receiver's call
// (an actually-expired context never gets this far — callers check
// first). A ctx without a deadline stamps nothing.
func SetDeadlineHeader(h http.Header, ctx context.Context) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	h.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
}

// FormatDeadline renders a remaining budget for the header.
func FormatDeadline(remaining time.Duration) string {
	ms := remaining.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	return strconv.FormatInt(ms, 10)
}

// withRequestDeadline derives the request's working context from the
// propagated deadline header: expired budgets report doomed=true (the
// caller answers 504 without doing any work), live ones return a
// context that cancels when the budget runs out. Requests without the
// header pass through untouched.
func withRequestDeadline(r *http.Request) (req *http.Request, cancel context.CancelFunc, doomed bool) {
	remaining, ok := DeadlineFromHeader(r.Header)
	if !ok {
		return r, func() {}, false
	}
	if remaining <= 0 {
		return r, func() {}, true
	}
	ctx, cancel := context.WithTimeout(r.Context(), remaining)
	return r.WithContext(ctx), cancel, false
}
