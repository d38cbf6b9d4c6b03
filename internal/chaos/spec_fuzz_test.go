package chaos

import (
	"strings"
	"testing"
	"time"
	"unicode"
)

// FuzzChaosSpec property-tests Parse, the -chaos flag's spec parser: it
// never panics, an empty or all-whitespace spec means "no injector" and
// no error, and every spec it accepts configures probabilities inside
// [0, 1] and only positive durations — the preconditions roll and
// jitter rely on when the middleware fires a fault.
func FuzzChaosSpec(f *testing.F) {
	for _, seed := range []string{
		"seed=7,latency=0.05:150ms,error=0.10,reset=0.02",  // package doc
		"seed=10,error=0.07,reset=0.03,latency=0.05:150ms", // scripts/chaos.sh soak
		"seed=44,truncate=0.15,stall=0.05:300ms",           // scripts/chaos.sh stream soak
		"seed=7,latency=0.05:150ms,error=0.10,reset=0.02,truncate=0.01,stall=0.03:2s",
		"",
		" \t\n",
		",",
		"latency=0.05:-1s",
		"error=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := Parse(spec)
		if strings.TrimFunc(spec, unicode.IsSpace) == "" {
			if inj != nil || err != nil {
				t.Fatalf("blank spec %q = (%v, %v), want (nil, nil)", spec, inj, err)
			}
			return
		}
		if err != nil {
			if inj != nil {
				t.Fatalf("spec %q returned an injector with error %v", spec, err)
			}
			return
		}
		if inj == nil {
			t.Fatalf("spec %q accepted without an injector", spec)
		}
		for name, p := range map[string]float64{
			"latency": inj.latencyP, "error": inj.errorP, "reset": inj.resetP,
			"truncate": inj.truncP, "stall": inj.stallP,
		} {
			if !(0 <= p && p <= 1) {
				t.Fatalf("spec %q: %s probability %v outside [0, 1]", spec, name, p)
			}
		}
		// A duration is either unset (its fault absent from the spec) or
		// positive; a configured fault always has one.
		for name, d := range map[string]time.Duration{"latency": inj.latency, "stall": inj.stall} {
			if d < 0 {
				t.Fatalf("spec %q: %s duration %v is negative", spec, name, d)
			}
		}
		if inj.latencyP > 0 && inj.latency <= 0 || inj.stallP > 0 && inj.stall <= 0 {
			t.Fatalf("spec %q: a configured fault has no positive duration: %+v", spec, inj)
		}
		if inj.rng == nil {
			t.Fatalf("spec %q: accepted injector has no PRNG", spec)
		}
	})
}
