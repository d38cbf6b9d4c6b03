package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"vabuf/internal/stats"
)

// WriteFigureCSVs writes the raw data series of the Figures 2, 3, 5 and
// 6 that RunAll computed into dir (created if missing) as fig2.csv,
// fig3.csv, fig5.csv and fig6.csv, for external plotting tools.
func WriteFigureCSVs(dir string, figs *Figures) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}

	// Figure 2: one row per mean difference, one probability column per
	// (rho, sigma-ratio) curve.
	curves := figs.Fig2
	header := []string{"mean_diff"}
	for _, c := range curves {
		header = append(header, fmt.Sprintf("p_rho%.1f_ratio%.0f", c.Rho, c.SigmaRatio))
	}
	rows := make([][]string, len(curves[0].MeanDiffs))
	for i := range rows {
		row := []string{fmtF(curves[0].MeanDiffs[i])}
		for _, c := range curves {
			row = append(row, fmtF(c.Probs[i]))
		}
		rows[i] = row
	}
	if err := writeCSV(filepath.Join(dir, "fig2.csv"), header, rows); err != nil {
		return err
	}

	// Figure 3: bin centers with empirical and model densities.
	f3 := figs.Fig3
	rows = rows[:0]
	emp := f3.Hist.PDF()
	for i := range emp {
		x := f3.Hist.BinCenter(i)
		rows = append(rows, []string{
			fmtF(x), fmtF(emp[i]), fmtF(stats.NormalPDF(x, f3.Fit.TbMean, f3.Fit.TbSigma)),
		})
	}
	if err := writeCSV(filepath.Join(dir, "fig3.csv"),
		[]string{"tb_ps", "substrate_pdf", "model_pdf"}, rows); err != nil {
		return err
	}

	// Figure 5: sinks vs runtime and candidates generated.
	f5 := figs.Fig5
	rows = rows[:0]
	for _, r := range f5.Rows {
		rows = append(rows, []string{r.Bench, strconv.Itoa(r.Sinks), fmtF(r.Elapsed.Seconds()),
			strconv.FormatInt(r.Generated, 10)})
	}
	if err := writeCSV(filepath.Join(dir, "fig5.csv"),
		[]string{"bench", "sinks", "seconds", "generated"}, rows); err != nil {
		return err
	}

	// Figure 6: RAT bins with MC and model densities.
	f6 := figs.Fig6
	rows = rows[:0]
	emp = f6.Hist.PDF()
	for i := range emp {
		x := f6.Hist.BinCenter(i)
		rows = append(rows, []string{
			fmtF(x), fmtF(emp[i]), fmtF(stats.NormalPDF(x, f6.ModelMean, f6.ModelSig)),
		})
	}
	return writeCSV(filepath.Join(dir, "fig6.csv"),
		[]string{"rat_ps", "mc_pdf", "model_pdf"}, rows)
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 9, 64) }

func writeCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
