package router

// Chaos integration: the whole fleet misbehaves (injected 500s and
// resets in front of every backend) while the router's retry budget,
// breaker, and failover walk keep the client-visible success rate high
// and the request amplification bounded. This is the in-process version
// of scripts/chaos.sh — same envelopes, assertable under -race.

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vabuf/internal/chaos"
	"vabuf/internal/server"
)

// TestFleetUnderChaos: 10% injected faults (server-side 500s and
// connection resets) across a 3-backend fleet. With the default retry
// budget the router must keep interactive success >= 99% and send at
// most 1.3x as many backend attempts as it received client requests.
func TestFleetUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not a -short test")
	}
	fleet := newFleet(t, 3, "")
	urls := make([]string, len(fleet))
	for i, b := range fleet {
		inj, err := chaos.Parse("seed=7,error=0.07,reset=0.03")
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(inj.Middleware(b))
		defer ts.Close()
		urls[i] = ts.URL
	}
	rt, ts := newTestRouterCfg(t, fleet, func(cfg *Config) {
		cfg.Backends = urls
		// Production-shaped resilience settings, scaled to test time.
		cfg.RetryBudget = 0.2
		cfg.RetryBurst = 20
		cfg.BreakerFailures = 5
		cfg.BreakerCooldown = 250 * time.Millisecond
		cfg.LookupTimeout = -1 // lookups would skew the amplification count
	})
	waitFor(t, "all chaos-wrapped backends healthy", func() bool {
		for _, u := range urls {
			if !rt.state.healthy(u) {
				return false
			}
		}
		return true
	})

	const n = 120
	ok, failed := 0, 0
	for i := 0; i < n; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/insert",
			server.InsertRequest{Tree: treeText(t, int64(1000+i)), Algo: "nom"})
		if resp.StatusCode == http.StatusOK {
			ok++
		} else {
			failed++
		}
	}
	if ok < n*99/100 {
		t.Errorf("success rate %d/%d under 10%% faults, want >= 99%%", ok, n)
	}

	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	attempts := int64(0)
	for _, b := range met["backends"].([]any) {
		attempts += int64(b.(map[string]any)["attempts"].(float64))
	}
	// ~10% of attempts fault and are retried once from the budget; the
	// envelope leaves headroom for a retry that faults again.
	if float64(attempts) > 1.3*float64(n) {
		t.Errorf("amplification: %d backend attempts for %d client requests (%.2fx)",
			attempts, n, float64(attempts)/float64(n))
	}
	if attempts < int64(n) {
		t.Errorf("attempts (%d) below request count (%d): attempts metric undercounts", attempts, n)
	}
	t.Logf("chaos envelope: %d/%d ok, %d attempts (%.2fx amplification)",
		ok, n, attempts, float64(attempts)/float64(n))
}
