package server

import (
	"encoding/json"
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
