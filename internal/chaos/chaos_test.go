package chaos

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	if inj, err := Parse(""); inj != nil || err != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", inj, err)
	}
	if inj, err := Parse("  "); inj != nil || err != nil {
		t.Errorf("blank spec = (%v, %v), want (nil, nil)", inj, err)
	}
	inj, err := Parse("seed=7,latency=0.05:150ms,error=0.10,reset=0.02,truncate=0.01,stall=0.03:2s")
	if err != nil {
		t.Fatal(err)
	}
	if inj.seed != 7 || inj.latencyP != 0.05 || inj.latency != 150*time.Millisecond ||
		inj.errorP != 0.10 || inj.resetP != 0.02 || inj.truncP != 0.01 ||
		inj.stallP != 0.03 || inj.stall != 2*time.Second {
		t.Errorf("full spec parsed as %+v", inj)
	}

	for _, bad := range []string{
		"latency",            // not key=value
		"latency=0.05",       // missing required duration
		"error=0.1:50ms",     // stray duration
		"error=1.5",          // probability out of range
		"error=-0.1",         // probability out of range
		"error=x",            // not a number
		"error=NaN",          // not a probability
		"latency=nan:50ms",   // not a probability
		"latency=0.05:-1s",   // non-positive duration
		"latency=0.05:bogus", // unparsable duration
		"explode=0.5",        // unknown fault
		"seed=x",             // bad seed
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", bad)
		}
	}
}

func TestSeededDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		inj, err := Parse(fmt.Sprintf("seed=%d,error=0.5", seed))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 32)
		for i := range out {
			out[i] = inj.roll()
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault streams")
	}
}

// countingHandler answers 200 with a small body and counts invocations.
func countingHandler(hits *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, `{"ok":true}`)
	})
}

func TestMiddlewareErrorRate(t *testing.T) {
	inj, err := Parse("seed=1,error=0.25")
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	ts := httptest.NewServer(inj.Middleware(countingHandler(&hits)))
	defer ts.Close()

	const n = 400
	errs := 0
	for i := 0; i < n; i++ {
		resp, err := http.Get(ts.URL + "/v1/insert")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusInternalServerError {
			errs++
		} else if resp.StatusCode != http.StatusOK {
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	// A seeded stream at p=0.25 over 400 draws lands well inside ±10pt.
	if errs < n/4-40 || errs > n/4+40 {
		t.Errorf("injected %d/%d errors at p=0.25", errs, n)
	}
	if int(hits.Load())+errs != n {
		t.Errorf("handler ran %d times + %d faults != %d requests", hits.Load(), errs, n)
	}
}

func TestMiddlewareExemptsProbes(t *testing.T) {
	inj, err := Parse("seed=1,error=1.0,reset=1.0")
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	ts := httptest.NewServer(inj.Middleware(countingHandler(&hits)))
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s through all-faults injector: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d through exempt path, want 200", path, resp.StatusCode)
		}
	}
	if hits.Load() != 3 {
		t.Errorf("exempt paths reached the handler %d times, want 3", hits.Load())
	}
	// And the non-exempt path faults every time at p=1.
	resp, err := http.Get(ts.URL + "/v1/insert")
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("non-exempt status %d under error=1.0", resp.StatusCode)
		}
	}
}

func TestMiddlewareReset(t *testing.T) {
	inj, err := Parse("seed=1,reset=1.0")
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	ts := httptest.NewServer(inj.Middleware(countingHandler(&hits)))
	defer ts.Close()

	_, err = http.Get(ts.URL + "/v1/insert")
	if err == nil {
		t.Fatal("reset=1.0 request completed with a response")
	}
	if hits.Load() != 0 {
		t.Errorf("handler ran %d times behind a guaranteed reset", hits.Load())
	}
}

func TestTruncateCutsStreamAfterFirstWrite(t *testing.T) {
	inj, err := Parse("seed=1,truncate=1.0")
	if err != nil {
		t.Fatal(err)
	}
	stream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, _ := w.(http.Flusher)
		for i := 0; i < 5; i++ {
			fmt.Fprintf(w, "{\"event\":%d}\n", i)
			if f != nil {
				f.Flush()
			}
		}
	})
	ts := httptest.NewServer(inj.Middleware(stream))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/yield:stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	// The first event arrives, then the connection dies: a read error or
	// a short body, never the full five events.
	if err == nil && strings.Count(string(raw), "\n") >= 5 {
		t.Fatalf("truncated stream delivered all events: %q", raw)
	}
	if len(raw) > 0 && !strings.HasPrefix(string(raw), `{"event":0}`) {
		t.Errorf("surviving prefix is not the first event: %q", raw)
	}
}

func TestStallDelaysSecondWrite(t *testing.T) {
	inj, err := Parse("seed=1,stall=1.0:300ms")
	if err != nil {
		t.Fatal(err)
	}
	stream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, _ := w.(http.Flusher)
		fmt.Fprint(w, "first\n")
		if f != nil {
			f.Flush()
		}
		fmt.Fprint(w, "second\n")
	})
	ts := httptest.NewServer(inj.Middleware(stream))
	defer ts.Close()

	t0 := time.Now()
	resp, err := http.Get(ts.URL + "/v1/yield:stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "first\nsecond\n" {
		t.Fatalf("stalled stream corrupted the body: %q", raw)
	}
	// jitter draws in (0, 300ms]; any measurable delay proves the stall
	// sat between the writes without corrupting them.
	if time.Since(t0) < time.Millisecond {
		t.Error("stall=1.0 added no delay before the second write")
	}
}

func TestTransportInjectsConnectionFaults(t *testing.T) {
	var backendHits atomic.Int64
	ts := httptest.NewServer(countingHandler(&backendHits))
	defer ts.Close()

	inj, err := Parse("seed=1,error=1.0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: inj.Transport(nil)}
	if _, err := client.Get(ts.URL + "/v1/insert"); err == nil {
		t.Fatal("error=1.0 transport completed a round-trip")
	}
	if backendHits.Load() != 0 {
		t.Errorf("backend saw %d requests through an all-faults transport", backendHits.Load())
	}
	// Exempt paths pass through untouched.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("exempt GET through faulty transport: %v", err)
	}
	resp.Body.Close()
	if backendHits.Load() != 1 {
		t.Errorf("exempt request did not reach the backend (hits=%d)", backendHits.Load())
	}
}

func TestNilInjectorIsTransparent(t *testing.T) {
	var inj *Injector
	h := http.NewServeMux()
	if got := inj.Middleware(h); got != http.Handler(h) {
		t.Error("nil injector wrapped the handler")
	}
	base := http.DefaultTransport
	if got := inj.Transport(base); got != base {
		t.Error("nil injector wrapped the transport")
	}
}
