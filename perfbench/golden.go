package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"vabuf/internal/core"
)

// goldenSeed is the seed whose work counters golden.json pins.
const goldenSeed = 1

// goldenPath is where -write-golden stores the file, relative to the
// repository root the benchmark runs from.
const goldenPath = "perfbench/golden.json"

//go:embed golden.json
var goldenJSON []byte

// goldenRow holds the machine-independent work counters of one solve.
// They repeat exactly for a given input, so any drift is a change in the
// work the program does: a dead hull path, a lost prune, a sampler that
// stops at a different point.
type goldenRow struct {
	Net            string `json:"net"`
	Generated      int64  `json:"generated"`
	Pruned         int64  `json:"pruned"`
	Merges         int64  `json:"merges"`
	HullSkipped    int64  `json:"hull_skipped"`
	HullFallbacks  int64  `json:"hull_fallbacks"`
	ArenaUsedBytes int64  `json:"arena_used_bytes"`
	MCSamples      int    `json:"mc_samples,omitempty"`
}

type goldenFile struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string][]goldenRow `json:"workloads"`
}

func statsRow(net string, st core.Stats) goldenRow {
	return goldenRow{
		Net:            net,
		Generated:      st.Generated,
		Pruned:         st.Pruned,
		Merges:         st.Merges,
		HullSkipped:    st.HullSkipped,
		HullFallbacks:  st.HullFallbacks,
		ArenaUsedBytes: st.ArenaUsedBytes,
	}
}

// checkGolden recomputes a workload's golden counters and describes the
// first difference from golden.json ("" when they match).
func checkGolden(w *workload) (string, error) {
	var gf goldenFile
	if err := json.Unmarshal(goldenJSON, &gf); err != nil {
		return "", fmt.Errorf("reading golden.json: %w", err)
	}
	want, ok := gf.Workloads[w.name]
	if !ok || gf.Seed != goldenSeed {
		return "", fmt.Errorf("golden.json has no %s rows for seed %d; run with -write-golden", w.name, goldenSeed)
	}
	got, err := w.golden()
	if err != nil {
		return "", err
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, golden has %d", len(got), len(want)), nil
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s: got %+v, golden %+v", got[i].Net, got[i], want[i]), nil
		}
	}
	return "", nil
}

// writeGolden recomputes every workload's golden counters into goldenPath.
func writeGolden() error {
	gf := goldenFile{Seed: goldenSeed, Workloads: make(map[string][]goldenRow)}
	for _, w := range workloads {
		if w.golden == nil {
			continue
		}
		rows, err := w.golden()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		gf.Workloads[w.name] = rows
	}
	data, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
