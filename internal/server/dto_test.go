package server

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"vabuf"
)

// TestStatsDTOKeys pins the key set of an InsertResult's "stats" object,
// including the omitempty hull_* keys: absent while the hull kernel did
// nothing, present once it did. A counter added to core.Stats must be
// named here on purpose, so neither the DTO nor /metrics drops or
// misspells it silently.
func TestStatsDTOKeys(t *testing.T) {
	base := []string{
		"arena_bytes", "arena_candidates", "arena_terms", "arena_used_bytes",
		"elapsed_ms", "generated", "merges", "nodes", "peak_list", "pruned",
		"subtree_hits", "subtree_misses", "subtree_stores", "workers",
	}
	hull := []string{"hull_fallbacks", "hull_peak", "hull_sites", "hull_skipped"}

	var full vabuf.Stats
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	cases := []struct {
		name  string
		stats vabuf.Stats
		want  []string
	}{
		{"zero", vabuf.Stats{}, base},
		{"every counter set", full, append(slices.Clone(base), hull...)},
	}
	for _, c := range cases {
		raw, err := json.Marshal(InsertResult{Stats: StatsDTO{Stats: c.stats}})
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Stats map[string]any `json:"stats"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		var got []string
		for k := range doc.Stats {
			got = append(got, k)
		}
		slices.Sort(got)
		want := slices.Clone(c.want)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: stats keys %v, want %v", c.name, got, want)
		}
	}
}

// TestYieldRequestNormalizeRejects: out-of-range numeric fields fail
// validation, NaN included — it passes every <, <=, >, >= comparison as
// false, so each range check must be written to reject it.
func TestYieldRequestNormalizeRejects(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		req  YieldRequest
	}{
		{"mc_tol negative", YieldRequest{MonteCarlo: 100, MCTol: -0.1}},
		{"mc_tol one", YieldRequest{MonteCarlo: 100, MCTol: 1}},
		{"mc_tol NaN", YieldRequest{MonteCarlo: 100, MCTol: nan}},
		{"mc_tol without cap", YieldRequest{MCTol: 0.1}},
		{"monte_carlo negative", YieldRequest{MonteCarlo: -1}},
		{"budget above one", YieldRequest{InsertRequest: InsertRequest{Budget: 1.5}}},
		{"budget NaN", YieldRequest{InsertRequest: InsertRequest{Budget: nan}}},
		{"pbar NaN", YieldRequest{InsertRequest: InsertRequest{Pbar: nan}}},
		{"quantile NaN", YieldRequest{InsertRequest: InsertRequest{Quantile: nan}}},
	}
	for _, c := range cases {
		c.req.Bench = "p1"
		if err := c.req.Normalize(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzNormalize: for any JSON body, a request Normalize accepts is a
// fixed point — normalizing it again accepts it and changes nothing. The
// vabufr router normalizes a copy of each request to route it and the
// owning backend normalizes the request again, so both must see the
// same fields.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		`{"bench":"r1"}`,
		`{"tree":"x","algo":"nom","rule":"4P","hull":"off","pbar":0.9,"budget":1,"heterogeneous":false,"quantile":0.5}`,
		`{"bench":"p1","monte_carlo":100,"mc_tol":0.5,"seed":-3,"parallelism":4,"priority":"sweep"}`,
		`{"bench":"p1","pbar":-0,"budget":0,"quantile":1e-300,"max_candidates":7,"timeout_ms":1}`,
		`{"bench":"p1","tree":"x"}`,
		`{"bench":"p1","mc_tol":0.5}`,
		`{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkNormalizeFixedPoint[InsertRequest](t, body)
		checkNormalizeFixedPoint[YieldRequest](t, body)
	})
}

// checkNormalizeFixedPoint decodes body twice; when the first decoding
// normalizes, the second must normalize twice over and end up equal.
func checkNormalizeFixedPoint[R any, P interface {
	*R
	Normalize() error
}](t *testing.T, body []byte) {
	once, twice := P(new(R)), P(new(R))
	if json.Unmarshal(body, once) != nil || once.Normalize() != nil {
		return
	}
	if err := json.Unmarshal(body, twice); err != nil {
		t.Fatalf("second decode of %q: %v", body, err)
	}
	for pass := 1; pass <= 2; pass++ {
		if err := twice.Normalize(); err != nil {
			t.Fatalf("%T from %q: Normalize pass %d rejected an accepted request: %v", once, body, pass, err)
		}
	}
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("%T from %q: second Normalize changed the request:\n%+v\n%+v", once, body, *once, *twice)
	}
}
