// Package router implements vabufr, the consistent-hash front of a
// vabufd fleet. It owns no DP engine — only routing: each request's
// content-addressed fingerprint (internal/server, hashed with an empty
// epoch) is mapped onto a hash ring of backends so that repeats of a
// request always land on the same instance and N result caches behave
// like one big cache instead of N cold ones. Health-aware failover walks
// the ring's successor order when the owner is down, and batch requests
// are split per owner and scatter-gathered. Membership is dynamic: the
// ring can be rebuilt at runtime (config reload, admin endpoint) without
// dropping in-flight requests, and a key whose owner changed is served
// from the previous owner's cache via a synchronous peer lookup before
// the new owner computes it cold.
package router

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// defaultVNodes is the number of virtual nodes per backend. 64 points
// per backend keeps the keyspace split within a few percent of uniform
// for fleets of 2–64 instances while the whole ring stays small enough
// to rebuild in microseconds.
const defaultVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a backend.
type ringPoint struct {
	hash    uint64
	backend string // backend base URL
}

// hashRing is a consistent-hash ring with a bounded number of virtual
// nodes per backend. Virtual-node positions depend only on the backend's
// address and the vnode ordinal — never on the membership set — so
// adding or removing a backend moves only the keys that backend gains or
// loses and leaves every other key→owner assignment stable. The ring is
// immutable after construction: membership changes build a new ring and
// swap it in atomically (see Router.Reload), so in-flight requests keep
// a consistent view.
type hashRing struct {
	backends []string
	points   []ringPoint // sorted by hash
}

// newRing builds the ring over the backend addresses. vnodes <= 0
// selects the default.
func newRing(backends []string, vnodes int) (*hashRing, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("consistent-hash ring needs at least one backend")
	}
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	seen := make(map[string]bool, len(backends))
	r := &hashRing{
		backends: backends,
		points:   make([]ringPoint, 0, len(backends)*vnodes),
	}
	for _, b := range backends {
		if seen[b] {
			return nil, fmt.Errorf("duplicate backend %q in ring", b)
		}
		seen[b] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(b, v), backend: b})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// pointHash positions virtual node v of a backend on the circle.
func pointHash(backend string, v int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\x00vnode=%d", backend, v)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash positions a partition key (a request fingerprint) on the circle.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// owner returns the backend URL owning key: the backend of the first
// ring point at or after the key's position, wrapping at the top.
func (r *hashRing) owner(key string) string {
	return r.points[r.search(keyHash(key))].backend
}

// search finds the index of the first point with hash >= h (mod ring).
func (r *hashRing) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// successors returns up to n distinct backends in ring order starting at
// key's owner — the failover order: when the owner is down, the next
// distinct backend on the circle serves, which is also where consistent
// hashing would send the key if the owner actually left the ring.
func (r *hashRing) successors(key string, n int) []string {
	if n > len(r.backends) {
		n = len(r.backends)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	start := r.search(keyHash(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, p.backend)
		}
	}
	return out
}
