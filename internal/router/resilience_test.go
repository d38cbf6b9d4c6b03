package router

// Resilience tests: retry budgets, circuit breakers, hedged requests,
// and deadline propagation through the router. Faulty backends here are
// hand-built handlers (healthy /readyz, failing request paths) — the
// exact failure mode the prober cannot see and the breaker exists for.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"vabuf/internal/server"
)

func TestRetryBudgetSpendAndCredit(t *testing.T) {
	b := newRetryBudget(0.5, 2)
	// Fresh bucket starts full at burst.
	if !b.spend("u") || !b.spend("u") {
		t.Fatal("fresh bucket refused its burst")
	}
	if b.spend("u") {
		t.Fatal("dry bucket allowed a spend")
	}
	// Two first attempts at ratio 0.5 earn one token back.
	b.credit("u")
	b.credit("u")
	if !b.spend("u") {
		t.Fatal("credited bucket refused a spend")
	}
	if b.spend("u") {
		t.Fatal("bucket overdrew its credit")
	}
	// A nil budget (disabled) allows everything.
	var nilB *retryBudget
	nilB.credit("u")
	if !nilB.spend("u") {
		t.Fatal("nil budget refused a spend")
	}
}

// TestBackendStateMachine drives one backend's state machine through
// scripted probe outcomes and request observations (see the transition
// table in backend.go). Steps:
//
//	up        two passed probes (RecoverAfter)
//	probe+    a passed /readyz probe
//	probe-    a probe that failed at the transport level
//	refused   a probe answered with a non-200 /readyz (draining)
//	err       a request transport error
//	500 ...   a request answered with that status
//	cool      the open breaker's cooldown elapses
//	allow     allow must grant the request slot
//	deny      allow must refuse it
//	readd     remove the backend, then add it again
func TestBackendStateMachine(t *testing.T) {
	type want struct {
		healthy, usable, open, reachable bool
		opens                            int64 // lifetime trips
	}
	up := []string{"probe+", "probe+"}
	with := func(pre []string, steps ...string) []string {
		return append(append([]string(nil), pre...), steps...)
	}
	trip := with(up, "500", "500", "500")
	cases := []struct {
		name  string
		steps []string
		want  want
	}{
		{"starts down", nil, want{}},
		{"one passed probe moves nothing", []string{"probe+"}, want{reachable: true}},
		{"recovers after RecoverAfter passes", up, want{true, true, false, true, 0}},
		{"a failed probe resets the recovery streak", []string{"probe+", "probe-", "probe+"}, want{reachable: true}},
		{"one failed probe moves nothing", with(up, "probe-"), want{true, true, false, true, 0}},
		{"down after FailAfter failures", with(up, "probe-", "probe-"), want{}},
		{"a refusing backend stays reachable", with(up, "refused", "refused"), want{reachable: true}},
		{"transport error marks down at once", with(up, "err"), want{}},
		{"below the threshold stays closed", with(up, "500", "502"), want{true, true, false, true, 0}},
		{"trips at the threshold", with(trip, "deny"), want{healthy: true, open: true, opens: 1}},
		{"transport errors count toward the trip", with(up, "500", "500", "err"), want{open: true, opens: 1}},
		{"a success resets the failure streak", with(up, "500", "500", "200", "500", "500"), want{true, true, false, true, 0}},
		{"429/503 never trip", with(up, "429", "503", "429", "503", "429", "503"), want{true, true, false, true, 0}},
		{"429/503 leave the failure streak alone", with(up, "500", "500", "429", "503", "500"), want{healthy: true, open: true, opens: 1}},
		{"one half-open request per cooldown", with(trip, "cool", "allow", "deny"), want{healthy: true, open: true, opens: 1}},
		{"a half-open success closes", with(trip, "cool", "allow", "200", "allow"), want{true, true, false, true, 1}},
		{"a failed half-open request re-arms", with(trip, "cool", "allow", "500", "deny"), want{healthy: true, open: true, opens: 1}},
		{"probe recovery closes an open breaker", with(up, "500", "500", "err", "probe+", "probe+", "allow"), want{true, true, false, true, 1}},
		{"remove then add is down and closed", with(trip, "readd"), want{opens: 1}},
	}
	const u = "http://127.0.0.1:1" // nothing listens: re-added poll loops probe harmlessly
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newBackendStates(Config{
				ProbeInterval:   time.Hour,
				FailAfter:       2,
				RecoverAfter:    2,
				BreakerFailures: 3,
				BreakerCooldown: time.Hour,
				Logf:            func(string, ...any) {},
			}.withDefaults())
			defer s.close()
			// Tracked without a poll loop, so only the script moves it.
			s.m[u] = &backend{url: u, kick: make(chan struct{}, 1), stop: make(chan struct{})}
			for i, step := range tc.steps {
				b := s.get(u)
				switch step {
				case "probe+":
					s.recordProbe(b, true, true, readyzBody{}, "")
				case "probe-":
					s.recordProbe(b, false, false, readyzBody{}, "connection refused")
				case "refused":
					s.recordProbe(b, false, true, readyzBody{}, "readyz: draining")
				case "err":
					s.observe(u, nil, errors.New("connection reset"))
				case "cool":
					b.mu.Lock()
					b.openUntil = time.Now()
					b.mu.Unlock()
				case "allow", "deny":
					if got := s.allow(u); got != (step == "allow") {
						t.Fatalf("step %d: allow = %v, want %v", i, got, !got)
					}
				case "readd":
					s.remove(u)
					s.add(u)
				default:
					status, err := strconv.Atoi(step)
					if err != nil {
						t.Fatalf("unknown step %q", step)
					}
					s.observe(u, &attempt{status: status}, nil)
				}
			}
			b := s.get(u)
			b.mu.Lock()
			open := b.open
			b.mu.Unlock()
			_, opens := s.breakerStats()
			got := want{s.healthy(u), s.usable(u), open, s.reachable(u), opens}
			if got != tc.want {
				t.Errorf("after %v: got %+v, want %+v", tc.steps, got, tc.want)
			}
		})
	}
}

func TestLatencyTrackerP95(t *testing.T) {
	var lt latencyTracker
	if lt.p95() != 0 {
		t.Fatal("empty tracker reported a p95")
	}
	for i := 1; i <= 100; i++ {
		lt.observe(time.Duration(i) * time.Millisecond)
	}
	if got := lt.p95(); got != 95*time.Millisecond {
		t.Fatalf("p95 of 1..100ms = %v, want 95ms", got)
	}
}

// faultyBackend answers /readyz 200 (the prober keeps it healthy) but
// fails every request endpoint with 500 until fixed.
type faultyBackend struct {
	fixed atomic.Bool
	hits  atomic.Int64
}

func (f *faultyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz", "/readyz":
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"status":"ok"}`)
		return
	}
	f.hits.Add(1)
	if f.fixed.Load() {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"num_buffers":1}`)
		return
	}
	http.Error(w, `{"error":"wedged"}`, http.StatusInternalServerError)
}

// TestBreakerBenchesErroringBackend: a backend that probes healthy but
// answers 500s gets routed around after BreakerFailures, and the good
// sibling serves everything; the 500s stop leaking to clients.
func TestBreakerBenchesErroringBackend(t *testing.T) {
	bad := &faultyBackend{}
	badTS := httptest.NewServer(bad)
	defer badTS.Close()
	fleet := newFleet(t, 1, "")
	rt, ts := newTestRouterCfg(t, fleet, func(cfg *Config) {
		cfg.Backends = []string{badTS.URL, fleet[0].ts.URL}
		cfg.BreakerFailures = 3
		cfg.BreakerCooldown = time.Minute // stays benched for the whole test
		cfg.RetryBurst = 100              // budget is not under test here
		cfg.LookupTimeout = -1            // lookups would muddy the hit counts
	})
	waitFor(t, "both backends healthy", func() bool {
		return rt.state.healthy(badTS.URL) && rt.state.healthy(fleet[0].ts.URL)
	})

	var tail500 int
	for i := 0; i < 20; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/insert",
			server.InsertRequest{Tree: treeText(t, int64(i)), Algo: "nom"})
		if resp.StatusCode != http.StatusOK {
			tail500++
			_ = raw
		}
	}
	// Every request must succeed: owner-side 500s retry on the sibling.
	if tail500 != 0 {
		t.Errorf("%d requests failed despite a healthy sibling", tail500)
	}
	if open, _ := rt.state.breakerStats(); open != 1 {
		t.Errorf("open breakers = %d, want 1 (the erroring backend)", open)
	}
	// Once open, the bad backend stops seeing traffic: its hit count
	// freezes while further requests flow.
	frozen := bad.hits.Load()
	for i := 20; i < 30; i++ {
		postJSON(t, ts.URL+"/v1/insert",
			server.InsertRequest{Tree: treeText(t, int64(i)), Algo: "nom"})
	}
	if got := bad.hits.Load(); got != frozen {
		t.Errorf("benched backend still saw %d new requests", got-frozen)
	}
}

// TestStreamFailsOverOnBackend5xx: the stream walk treats a backend's
// 500 as tryBackends does — a breaker failure and a hop to the next
// backend, since no byte has reached the client yet — so every stream
// is served by the healthy sibling and the erroring backend is benched.
func TestStreamFailsOverOnBackend5xx(t *testing.T) {
	bad := &faultyBackend{}
	badTS := httptest.NewServer(bad)
	defer badTS.Close()
	fleet := newFleet(t, 1, "")
	rt, ts := newTestRouterCfg(t, fleet, func(cfg *Config) {
		cfg.Backends = []string{badTS.URL, fleet[0].ts.URL}
		cfg.BreakerFailures = 3
		cfg.BreakerCooldown = time.Minute // stays benched for the whole test
		cfg.LookupTimeout = -1
	})
	waitFor(t, "both backends healthy", func() bool {
		return rt.state.healthy(badTS.URL) && rt.state.healthy(fleet[0].ts.URL)
	})

	for i := 0; i < 20; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/yield:stream", server.YieldRequest{
			InsertRequest: server.InsertRequest{Tree: treeText(t, int64(i)), Algo: "wid"},
			MonteCarlo:    64,
		})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("stream %d: status %d despite a healthy sibling: %s", i, resp.StatusCode, raw)
		}
	}
	if open, _ := rt.state.breakerStats(); open != 1 {
		t.Errorf("open breakers = %d, want 1 (the erroring backend)", open)
	}
}

// TestBenchmarksRouteAroundOpenBreaker: GET /v1/benchmarks walks the
// membership like every other endpoint. Once the first backend's breaker
// is open, the read goes to the healthy sibling instead of relaying the
// benched backend's 500.
func TestBenchmarksRouteAroundOpenBreaker(t *testing.T) {
	bad := &faultyBackend{}
	badTS := httptest.NewServer(bad)
	defer badTS.Close()
	fleet := newFleet(t, 1, "")
	rt, ts := newTestRouterCfg(t, fleet, func(cfg *Config) {
		cfg.Backends = []string{badTS.URL, fleet[0].ts.URL}
		cfg.BreakerFailures = 3
		cfg.BreakerCooldown = time.Minute // stays benched for the whole test
		cfg.RetryBurst = 100              // budget is not under test here
		cfg.LookupTimeout = -1
	})
	waitFor(t, "both backends healthy", func() bool {
		return rt.state.healthy(badTS.URL) && rt.state.healthy(fleet[0].ts.URL)
	})
	for i := 0; i < 20; i++ {
		if open, _ := rt.state.breakerStats(); open > 0 {
			break
		}
		postJSON(t, ts.URL+"/v1/insert",
			server.InsertRequest{Tree: treeText(t, int64(i)), Algo: "nom"})
	}
	if open, _ := rt.state.breakerStats(); open != 1 {
		t.Fatalf("open breakers = %d, want 1 (the erroring backend)", open)
	}
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/v1/benchmarks")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /v1/benchmarks %d: status %d, want 200 from the healthy sibling", i, resp.StatusCode)
		}
	}
}

// TestRetryBudgetBoundsAmplification: with a tiny budget and no breaker,
// the router stops manufacturing retries against a failing backend once
// the bucket runs dry — the 500 surfaces instead of a retry storm.
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	bad := &faultyBackend{}
	badTS := httptest.NewServer(bad)
	defer badTS.Close()
	fleet := newFleet(t, 1, "")
	good := fleet[0]
	rt, ts := newTestRouterCfg(t, fleet, func(cfg *Config) {
		cfg.Backends = []string{badTS.URL, good.ts.URL}
		cfg.RetryBudget = 0.01    // almost no credit per first attempt
		cfg.RetryBurst = 1        // one manufactured request, total
		cfg.BreakerFailures = 100 // above the 12 requests: breakers never open
		cfg.LookupTimeout = -1    // lookups would also draw on the budget
	})
	waitFor(t, "both backends healthy", func() bool {
		return rt.state.healthy(badTS.URL) && rt.state.healthy(good.ts.URL)
	})

	okN, failN := 0, 0
	for i := 0; i < 12; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/insert",
			server.InsertRequest{Tree: treeText(t, int64(i)), Algo: "nom"})
		if resp.StatusCode == http.StatusOK {
			okN++
		} else {
			failN++
		}
	}
	// Keys owned by the good backend succeed on the free first attempt;
	// bad-owned keys get at most ~1 budgeted failover, then surface 500.
	if okN == 0 {
		t.Fatal("no request succeeded at all")
	}
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	res := met["resilience"].(map[string]any)
	if got, _ := res["retry_budget_exhausted"].(float64); got == 0 {
		t.Error("retry_budget_exhausted = 0, want > 0 (the budget never bit)")
	}
	// Amplification bound: the bad backend absorbs one attempt per
	// bad-owned request plus at most burst+earned manufactured ones; it
	// must see nowhere near one retry per failure.
	attempts := int64(0)
	for _, b := range met["backends"].([]any) {
		attempts += int64(b.(map[string]any)["attempts"].(float64))
	}
	if attempts > 12+3 {
		t.Errorf("total attempts = %d for 12 requests with burst 1", attempts)
	}
}

// slowBackend wraps a real server, delaying request endpoints.
type slowBackend struct {
	inner http.Handler
	delay time.Duration
	hits  atomic.Int64
}

func (s *slowBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz", "/readyz":
		s.inner.ServeHTTP(w, r)
		return
	}
	s.hits.Add(1)
	time.Sleep(s.delay)
	s.inner.ServeHTTP(w, r)
}

// TestHedgedRequestWinsOverSlowBackend: when the owner is slow, the
// hedge fires after HedgeAfter and the fast sibling's answer serves the
// client well before the slow owner finishes.
func TestHedgedRequestWinsOverSlowBackend(t *testing.T) {
	fleet := newFleet(t, 2, "")
	slow := &slowBackend{inner: fleet[0], delay: 600 * time.Millisecond}
	slowTS := httptest.NewServer(slow)
	defer slowTS.Close()
	rt, ts := newTestRouterCfg(t, fleet, func(cfg *Config) {
		cfg.Backends = []string{slowTS.URL, fleet[1].ts.URL}
		cfg.HedgeAfter = 40 * time.Millisecond
		cfg.RetryBurst = 100
		cfg.LookupTimeout = -1
	})
	waitFor(t, "both backends healthy", func() bool {
		return rt.state.healthy(slowTS.URL) && rt.state.healthy(fleet[1].ts.URL)
	})

	// Find a tree owned by the slow backend so the hedge has something
	// to win; distinct seeds spread keys over both owners.
	wins := 0
	for i := 0; i < 8; i++ {
		body := server.InsertRequest{Tree: treeText(t, int64(40+i)), Algo: "nom"}
		t0 := time.Now()
		resp, raw := postJSON(t, ts.URL+"/v1/insert", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, raw)
		}
		if time.Since(t0) > 500*time.Millisecond {
			t.Errorf("request %d took %v: hedge never rescued it", i, time.Since(t0))
		}
	}
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	res := met["resilience"].(map[string]any)
	wins = int(res["hedge_wins"].(float64))
	if wins == 0 {
		t.Error("hedge_wins = 0: no slow-owned key was rescued by its hedge")
	}
}

// TestRouterRejectsSpentDeadline: a request arriving at the router with
// Vabuf-Deadline-Ms: 0 is answered 504 locally — no backend attempt, no
// DP work anywhere in the fleet.
func TestRouterRejectsSpentDeadline(t *testing.T) {
	fleet := newFleet(t, 2, "")
	rt, ts := newTestRouterCfg(t, fleet, nil)
	_ = rt
	attemptsBefore := routerAttemptsTotal(t, ts)

	for _, ep := range []string{"/v1/insert", "/v1/yield", "/v1/insert:batch", "/v1/yield:stream", "/v1/benchmarks"} {
		method := http.MethodPost
		var body []byte
		switch ep {
		case "/v1/benchmarks":
			method = http.MethodGet
		case "/v1/insert:batch":
			body = []byte(`{"items":[{"bench":"p1","algo":"nom"}]}`)
		default:
			body = []byte(`{"bench":"p1","algo":"nom"}`)
		}
		req, err := http.NewRequest(method, ts.URL+ep, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(server.DeadlineHeader, "0")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s with spent deadline: status %d, want 504", ep, resp.StatusCode)
		}
	}
	if after := routerAttemptsTotal(t, ts); after != attemptsBefore {
		t.Errorf("spent-deadline requests caused %d backend attempts", after-attemptsBefore)
	}
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	dl := met["deadline"].(map[string]any)
	if got, _ := dl["rejected_total"].(float64); got != 5 {
		t.Errorf("deadline.rejected_total = %v, want 5", got)
	}
}

// headerCapture wraps a backend and records the deadline header of the
// last request endpoint it served.
type headerCapture struct {
	inner http.Handler
	last  atomic.Value // string
}

func (h *headerCapture) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz", "/readyz":
	default:
		h.last.Store(r.Header.Get(server.DeadlineHeader))
	}
	h.inner.ServeHTTP(w, r)
}

// TestDeadlinePropagatesToBackend: the router re-stamps the REMAINING
// budget on its outbound hop — the backend sees a positive value no
// larger than what the client sent, not a forwarded copy and not
// nothing.
func TestDeadlinePropagatesToBackend(t *testing.T) {
	fleet := newFleet(t, 1, "")
	cap := &headerCapture{inner: fleet[0]}
	capTS := httptest.NewServer(cap)
	defer capTS.Close()
	rt, ts := newTestRouterCfg(t, fleet, func(cfg *Config) {
		cfg.Backends = []string{capTS.URL}
	})
	waitFor(t, "backend healthy", func() bool { return rt.state.healthy(capTS.URL) })

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/insert",
		bytes.NewReader([]byte(`{"bench":"p1","algo":"nom"}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.DeadlineHeader, "30000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("30s budget: status %d, want 200", resp.StatusCode)
	}

	got, _ := cap.last.Load().(string)
	if got == "" {
		t.Fatal("backend hop carried no deadline header")
	}
	ms, err := strconv.ParseInt(got, 10, 64)
	if err != nil {
		t.Fatalf("backend hop deadline header %q is not an integer", got)
	}
	if ms <= 0 || ms > 30000 {
		t.Errorf("backend hop got %dms of budget, want (0, 30000]", ms)
	}

	// Without a client deadline, the router must not invent one.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/insert",
		server.InsertRequest{Tree: treeText(t, 77), Algo: "nom"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("no-deadline insert: status %d (%s)", resp2.StatusCode, raw2)
	}
	if got, _ := cap.last.Load().(string); got != "" {
		t.Errorf("router invented a deadline header %q for a request without one", got)
	}
}

func routerAttemptsTotal(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	res, ok := met["resilience"].(map[string]any)
	if !ok {
		t.Fatal("/metrics has no resilience section")
	}
	return int64(res["attempts_total"].(float64))
}
