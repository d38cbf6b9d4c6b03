package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestBudgetAblationShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Benches = []string{"r1"}
	rows, err := BudgetAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Spread grows with the budget.
	for i := 1; i < len(rows); i++ {
		if !(rows[i].SigmaOverMean > rows[i-1].SigmaOverMean) {
			t.Errorf("sigma/mean not increasing: %+v", rows)
		}
	}
	// At the largest budget the NOM degradation is at least as bad as at
	// the smallest (the leverage story of DESIGN.md).
	if rows[2].AvgNOMDeg > rows[0].AvgNOMDeg+1e-6 {
		t.Errorf("NOM degradation did not grow with budget: %.4f vs %.4f",
			rows[2].AvgNOMDeg, rows[0].AvgNOMDeg)
	}
	var sb strings.Builder
	if err := RenderBudgetAblation(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "budget") {
		t.Error("render missing header")
	}
}

func TestWireSizingAblationShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Benches = []string{"r1"}
	rows, err := WireSizingAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	// Wire sizing includes the default width, so it can only help the
	// yield RAT (tiny tolerance for quantile-evaluation noise between the
	// two independent model instances).
	if r.Improvement < -0.01 {
		t.Errorf("wire sizing lost %.2f%%", 100*r.Improvement)
	}
	if r.SizedWideEdges == 0 {
		t.Error("no edges were widened; the ablation shows nothing")
	}
	var sb strings.Builder
	if err := RenderWireSizing(&sb, rows); err != nil {
		t.Fatal(err)
	}
}

func TestMinVarianceAblationShape(t *testing.T) {
	rows, err := MinVarianceAblation(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// The pure blend understates variance; matching restores it.
		if r.BlendVarRatio > 1.001 {
			t.Errorf("rho %.1f: blend ratio %.3f above 1", r.Rho, r.BlendVarRatio)
		}
		if math.Abs(r.MatchedVarRatio-1) > 1e-9 {
			t.Errorf("rho %.1f: matched ratio %.6f != 1", r.Rho, r.MatchedVarRatio)
		}
	}
	// The deficit is worst for independent inputs.
	if !(rows[0].BlendVarRatio < rows[2].BlendVarRatio) {
		t.Errorf("blend deficit should shrink with correlation: %+v", rows)
	}
	var sb strings.Builder
	if err := RenderMinVariance(&sb, rows); err != nil {
		t.Fatal(err)
	}
}

func TestInverterAblationShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Benches = []string{"r1"}
	rows, err := InverterAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	// The combined library strictly contains the buffer library, so the
	// result must not get worse (tolerance for independent model noise).
	if r.Gain < -0.01 {
		t.Errorf("inverters lost %.2f%%", 100*r.Gain)
	}
	if r.Buffers+r.Inverters == 0 {
		t.Error("no devices inserted")
	}
	var sb strings.Builder
	if err := RenderInverterAblation(&sb, rows); err != nil {
		t.Fatal(err)
	}
}

func TestCornerAblationShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Benches = []string{"r1", "r2"}
	rows, err := CornerAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Honest finding (see EXPERIMENTS.md): SS-corner pessimism acts as
		// implicit variance guard-banding, so the two flows land within a
		// few percent of each other — neither should blow the other away.
		if math.Abs(r.Penalty) > 0.035 {
			t.Errorf("%s: corner-vs-WID gap %.2f%% out of the expected band", r.Bench, 100*r.Penalty)
		}
		if r.CornerBuffers == 0 || r.WIDBuffers == 0 {
			t.Errorf("%s: degenerate buffer counts %d/%d", r.Bench, r.CornerBuffers, r.WIDBuffers)
		}
		// The flows produce genuinely different designs.
		if r.CornerBuffers == r.WIDBuffers {
			t.Logf("%s: corner and WID coincidentally used %d buffers", r.Bench, r.WIDBuffers)
		}
	}
	var sb strings.Builder
	if err := RenderCornerAblation(&sb, rows); err != nil {
		t.Fatal(err)
	}
}

// skewMemo holds SkewExtension's rows by the only Config fields it reads,
// Seed and BudgetFrac: TestSkewExtensionShape and TestRunAllQuick both
// run it on QuickConfig's, and share one computation.
var skewMemo struct {
	sync.Mutex
	rows map[skewKey][]SkewRow
}

type skewKey struct {
	seed   int64
	budget float64
}

func init() {
	skewExtension = func(cfg Config) ([]SkewRow, error) {
		cfg = cfg.withDefaults()
		key := skewKey{cfg.Seed, cfg.BudgetFrac}
		skewMemo.Lock()
		defer skewMemo.Unlock()
		if rows, ok := skewMemo.rows[key]; ok {
			return rows, nil
		}
		rows, err := SkewExtension(cfg)
		if err != nil {
			return nil, err
		}
		if skewMemo.rows == nil {
			skewMemo.rows = make(map[skewKey][]SkewRow)
		}
		skewMemo.rows[key] = rows
		return rows, nil
	}
}

func TestSkewExtensionShape(t *testing.T) {
	cfg := QuickConfig()
	rows, err := skewExtension(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.UnbufferedSkew <= 0 {
			t.Errorf("%d sinks: unbuffered skew %g not positive", r.Sinks, r.UnbufferedSkew)
		}
		// Both optimizers must beat doing nothing, and the variation-aware
		// design must not lose to the deterministic one at the 95%-tile.
		if r.DetSkewQ >= r.UnbufferedSkew {
			t.Errorf("%d sinks: det design %g did not beat unbuffered %g",
				r.Sinks, r.DetSkewQ, r.UnbufferedSkew)
		}
		// On the combined objective it actually optimizes, the
		// variation-aware design must not lose to the deterministic one
		// (small tolerance for ε-coarsening).
		if r.StatObj > r.DetObj*1.05 {
			t.Errorf("%d sinks: va objective %g worse than det %g",
				r.Sinks, r.StatObj, r.DetObj)
		}
	}
	var sb strings.Builder
	if err := RenderSkewExtension(&sb, rows); err != nil {
		t.Fatal(err)
	}
}
