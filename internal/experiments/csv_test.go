package experiments

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func TestWriteFigureCSVs(t *testing.T) {
	dir := t.TempDir()
	cfg := QuickConfig()
	cfg.Benches = []string{"p1", "r1"}
	cfg.MCSamples = 1000
	figs := quickFigures(t, cfg)
	if err := WriteFigureCSVs(dir, figs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2.csv", "fig3.csv", "fig5.csv", "fig6.csv"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		records, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(records) < 3 {
			t.Errorf("%s: only %d rows", name, len(records))
		}
		// Every data cell after the header parses as a number (except the
		// bench-name column of fig5).
		for r, rec := range records[1:] {
			for c, cell := range rec {
				if name == "fig5.csv" && c == 0 {
					continue
				}
				if _, err := strconv.ParseFloat(cell, 64); err != nil {
					t.Fatalf("%s row %d col %d: %q not numeric", name, r, c, cell)
				}
			}
		}
	}
	// Densities in fig3 integrate to ~1 (sanity of the exported series).
	f, err := os.Open(filepath.Join(dir, "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(f).ReadAll()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var width, sum float64
	x0, _ := strconv.ParseFloat(records[1][0], 64)
	x1, _ := strconv.ParseFloat(records[2][0], 64)
	width = x1 - x0
	for _, rec := range records[1:] {
		d, _ := strconv.ParseFloat(rec[1], 64)
		sum += d * width
	}
	if sum < 0.9 || sum > 1.1 {
		t.Errorf("fig3 empirical PDF integrates to %g", sum)
	}
	// Unwritable directory errors.
	if err := WriteFigureCSVs("/proc/definitely-not-writable/x", figs); err == nil {
		t.Error("unwritable dir accepted")
	}
}

// quickFigures computes the four exported figures the way RunAll does.
func quickFigures(t *testing.T, cfg Config) *Figures {
	t.Helper()
	var figs Figures
	var err error
	if figs.Fig2, err = Figure2(cfg); err != nil {
		t.Fatal(err)
	}
	if figs.Fig3, err = Figure3(cfg); err != nil {
		t.Fatal(err)
	}
	if figs.Fig5, err = Figure5(cfg); err != nil {
		t.Fatal(err)
	}
	if figs.Fig6, err = Figure6(cfg); err != nil {
		t.Fatal(err)
	}
	return &figs
}
