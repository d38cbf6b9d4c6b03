package server

// Content-addressed result fingerprints. A fingerprint identifies the
// *outcome* of a request, not its spelling: it is computed over the
// normalized request (defaults filled, rule lowercased), trees are
// addressed by cache key (benchmarks by name, inline text by content
// hash), and fields that cannot change the response bytes are excluded —
// timeout_ms only caps the run, priority only schedules it, the DP
// engine returns identical results for every parallelism, and hull only
// selects the buffering kernel (bit-identical by contract). Two requests
// with equal fingerprints are therefore interchangeable: the result
// cache answers the second from memory, and the in-flight registry
// coalesces concurrent ones onto a single worker.
//
// The cache epoch (Config.Epoch, the vabufd -epoch flag) is mixed in as
// well: it names the buffer-library / device-model generation the
// instance serves, so bumping it fleet-wide turns every previously
// cached result cold instead of silently pinning results computed
// against the old library. The vabufr router hashes the same
// fingerprint with an *empty* epoch as its partition key — an epoch
// bump invalidates caches without reshuffling request ownership.
//
// Yield fingerprints do include the sampler identity: monte_carlo,
// seed, mc_tol, whether the run is adaptive, and the name of the sample
// stream, because those change the sample vector and with it the
// reported quantiles. Parallelism does not: every worker count draws
// the same samples.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// fingerprintVersion is folded into every fingerprint so a change to the
// inclusion set can never serve a stale cached result after an upgrade.
// fp2 added the cache epoch.
const fingerprintVersion = "fp2"

// writeFingerprint streams the output-affecting fields of a normalized
// insert request. kind separates the insert and yield result spaces;
// epoch is the instance's cache epoch ("" for routing keys).
func (r *InsertRequest) writeFingerprint(w io.Writer, kind, epoch string) {
	fmt.Fprintf(w,
		"%s\x00%s\x00epoch=%s\x00tree=%s\x00algo=%s\x00rule=%s\x00pbar=%g\x00budget=%g\x00hetero=%t\x00q=%g\x00maxcand=%d\x00ws=%t\x00inv=%t\x00assign=%t",
		fingerprintVersion, kind, epoch, treeCacheKey(r), r.Algo, r.Rule, r.Pbar,
		r.Budget, r.heterogeneous(), r.Quantile, r.MaxCandidates,
		r.WireSizing, r.Inverters, r.IncludeAssignment)
}

// Fingerprint returns the content-addressed result-cache key of a
// normalized insert request under the given cache epoch. Call it only
// after Normalize() — the normalization is what makes semantically-equal
// spellings hash equal. Routing callers (vabufr) pass epoch "": the
// partition key must survive an epoch bump unchanged.
func (r *InsertRequest) Fingerprint(epoch string) string {
	h := sha256.New()
	r.writeFingerprint(h, "insert", epoch)
	return "ins:" + hex.EncodeToString(h.Sum(nil))
}

// mcStream names the Monte-Carlo sample stream. Every yield fingerprint
// folds it in, so a deliberate stream change renames it and no cache or
// restored snapshot serves samples of the old stream under a new key.
const mcStream = "keyed"

// mcSampler names the Monte-Carlo sampler a normalized yield request
// selects. Every worker count draws the same samples, so only the
// stopping rule tells samplers apart.
func (r *YieldRequest) mcSampler() string {
	switch {
	case r.MonteCarlo <= 0:
		return "none"
	case r.MCTol > 0:
		return "adaptive"
	default:
		return "fixed"
	}
}

// Fingerprint returns the content-addressed result-cache key of a
// normalized yield request: the insert fingerprint fields plus the
// Monte-Carlo recipe.
func (r *YieldRequest) Fingerprint(epoch string) string {
	h := sha256.New()
	r.InsertRequest.writeFingerprint(h, "yield", epoch)
	fmt.Fprintf(h, "\x00mc=%d\x00seed=%d\x00stream=%s\x00sampler=%s\x00tol=%g",
		r.MonteCarlo, r.Seed, mcStream, r.mcSampler(), r.MCTol)
	return "yld:" + hex.EncodeToString(h.Sum(nil))
}
