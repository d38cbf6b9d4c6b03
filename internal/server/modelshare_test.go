package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vabuf"
)

// Model sharing across ECO edits: the model LRU is keyed by site layout,
// so an edit of a sink's load or RAT reuses the base net's model (and
// with it the subtree cache), while every answer stays bit-identical to
// the library on a freshly built model.

// netLines returns a generated routing tree as rctree text lines.
func netLines(t *testing.T, sinks int, seed int64) []string {
	t.Helper()
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Name: "eco", Sinks: sinks, Seed: seed})
	if err != nil {
		t.Fatalf("generating tree: %v", err)
	}
	var buf bytes.Buffer
	if err := vabuf.WriteTree(&buf, tree); err != nil {
		t.Fatalf("writing tree: %v", err)
	}
	return strings.Split(buf.String(), "\n")
}

// Field indexes of a node record ("node id kind x y parent wirelen bufok
// cap rat name").
const (
	fieldKind  = 2
	fieldX     = 3
	fieldBufOK = 7
	fieldRAT   = 9
)

// nodeLines returns the indexes of the node records of the given kind.
func nodeLines(lines []string, kind string) []int {
	var out []int
	for i, l := range lines {
		if f := strings.Fields(l); len(f) > fieldRAT && f[0] == "node" && f[fieldKind] == kind {
			out = append(out, i)
		}
	}
	return out
}

// editField returns the tree text with one field of line at replaced by
// what edit makes of its numeric value.
func editField(tb testing.TB, lines []string, at, field int, edit func(float64) float64) string {
	tb.Helper()
	out := slices.Clone(lines)
	f := strings.Fields(out[at])
	v, err := strconv.ParseFloat(f[field], 64)
	if err != nil {
		tb.Fatalf("line %d field %d: %v", at, field, err)
	}
	f[field] = strconv.FormatFloat(edit(v), 'g', -1, 64)
	out[at] = strings.Join(f, " ")
	return strings.Join(out, "\n")
}

// freshLibraryYield answers a yield request through the library on a
// freshly built model — vabuf.Insert, EvaluateYield and, when asked,
// the serial Monte Carlo — with the options a cold vabufd uses, and
// renders it as the server would.
func freshLibraryYield(t *testing.T, req YieldRequest) YieldResult {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	tree, err := vabuf.ReadTree(strings.NewReader(req.Tree))
	if err != nil {
		t.Fatal(err)
	}
	cfg := vabuf.DefaultModelConfig(tree)
	cfg.RandomFrac, cfg.SpatialFrac, cfg.InterDieFrac = req.Budget, req.Budget, req.Budget
	cfg.Heterogeneous = req.heterogeneous()
	model, err := vabuf.NewVariationModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	opts := vabuf.Options{
		Library:        lib,
		Model:          model,
		PbarL:          req.Pbar,
		PbarT:          req.Pbar,
		SelectQuantile: req.Quantile,
	}
	res, err := vabuf.Insert(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	report, err := vabuf.EvaluateYield(tree, lib, res.Assignment, model, req.Quantile)
	if err != nil {
		t.Fatal(err)
	}
	out := YieldResult{
		Insert:     NewInsertResult(tree, lib, req.Algo, opts, res, 0, true),
		MeanPS:     report.Mean,
		SigmaPS:    report.Sigma,
		YieldRATPS: report.YieldRAT,
	}
	if req.MonteCarlo > 0 {
		samples, err := vabuf.MonteCarloRAT(tree, lib, res.Assignment, model, req.MonteCarlo, req.Seed)
		if err != nil {
			t.Fatal(err)
		}
		out.MonteCarlo = summarizeSamples(samples, req.Quantile)
	}
	return out
}

// diffInsert reports how a served insert answer differs from the
// library's, or "" when mean, sigma, objective and assignment agree bit
// for bit.
func diffInsert(got, want InsertResult) string {
	switch {
	case got.MeanPS != want.MeanPS || got.SigmaPS != want.SigmaPS || got.ObjectivePS != want.ObjectivePS:
		return fmt.Sprintf("mean/sigma/objective %v/%v/%v, library %v/%v/%v",
			got.MeanPS, got.SigmaPS, got.ObjectivePS, want.MeanPS, want.SigmaPS, want.ObjectivePS)
	case !slices.Equal(got.Assignment, want.Assignment):
		return fmt.Sprintf("assignment %v, library %v", got.Assignment, want.Assignment)
	}
	return ""
}

func postInsert(t *testing.T, url string, req InsertRequest) InsertResult {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/insert", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, raw)
	}
	var res InsertResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func subtreeHits(t *testing.T, url string) float64 {
	t.Helper()
	var met map[string]any
	getJSON(t, url+"/metrics", &met)
	return met["caches"].(map[string]any)["subtree"].(map[string]any)["hits"].(float64)
}

func TestECOEditSharesModelAndSubtrees(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	lines := netLines(t, 40, 11)
	base := InsertRequest{Tree: strings.Join(lines, "\n"), Algo: "wid", IncludeAssignment: true}
	if res := postInsert(t, ts.URL, base); res.ModelCacheHit {
		t.Fatal("first request for the base net reported a model hit")
	}
	hits := subtreeHits(t, ts.URL)

	sinks := nodeLines(lines, "sink")
	edit := base
	edit.Tree = editField(t, lines, sinks[len(sinks)/2], fieldRAT, func(v float64) float64 { return v - 25 })
	res := postInsert(t, ts.URL, edit)
	if !res.ModelCacheHit {
		t.Error("sink-RAT edit missed the model cache")
	}
	if res.TreeCacheHit {
		t.Error("edited text hit the tree cache")
	}
	if after := subtreeHits(t, ts.URL); after <= hits {
		t.Errorf("caches.subtree.hits %g -> %g, want a rise", hits, after)
	}
	want := freshLibraryYield(t, YieldRequest{InsertRequest: edit}).Insert
	if d := diffInsert(res, want); d != "" {
		t.Errorf("edit on the shared model: %s", d)
	}
}

func TestLayoutEditMissesModel(t *testing.T) {
	lines := netLines(t, 24, 5)
	var site int // a buffer-capable Steiner point
	for _, i := range nodeLines(lines, "steiner") {
		if strings.Fields(lines[i])[fieldBufOK] == "1" {
			site = i
			break
		}
	}
	if site == 0 {
		t.Fatal("generated tree has no buffer-capable Steiner point")
	}
	for _, tc := range []struct {
		name string
		tree string
	}{
		{"move site", editField(t, lines, site, fieldX, func(v float64) float64 { return v + 0.5 })},
		{"clear bufok", editField(t, lines, site, fieldBufOK, func(float64) float64 { return 0 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 2})
			postInsert(t, ts.URL, InsertRequest{Tree: strings.Join(lines, "\n"), Algo: "wid"})
			req := InsertRequest{Tree: tc.tree, Algo: "wid", IncludeAssignment: true}
			res := postInsert(t, ts.URL, req)
			if res.ModelCacheHit {
				t.Error("layout edit hit the base net's model")
			}
			want := freshLibraryYield(t, YieldRequest{InsertRequest: req}).Insert
			if d := diffInsert(res, want); d != "" {
				t.Error(d)
			}
		})
	}
}

// TestConcurrentEditsShareModel runs distinct edits of one layout on
// four workers at once, yield and Monte Carlo included, from a cold
// model cache: the first edit builds the model the others share while
// it runs. The shared model must stay read-only (the race detector
// checks) and every answer equal its fresh-model library answer.
func TestConcurrentEditsShareModel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	lines := netLines(t, 30, 3)
	base := YieldRequest{
		InsertRequest: InsertRequest{Algo: "wid", IncludeAssignment: true},
		MonteCarlo:    200,
	}

	sinks := nodeLines(lines, "sink")
	const edits = 8
	reqs := make([]YieldRequest, edits)
	got := make([]YieldResult, edits)
	errs := make([]error, edits)
	var wg sync.WaitGroup
	for i := range reqs {
		reqs[i] = base
		reqs[i].Tree = editField(t, lines, sinks[(i*7)%len(sinks)], fieldRAT,
			func(v float64) float64 { return v - float64(5*(i+1)) })
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload, _ := json.Marshal(reqs[i])
			resp, err := http.Post(ts.URL+"/v1/yield", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&got[i])
		}(i)
	}
	wg.Wait()
	misses := 0
	for i := range reqs {
		if errs[i] != nil {
			t.Errorf("edit %d: %v", i, errs[i])
			continue
		}
		if !got[i].Insert.ModelCacheHit {
			misses++
		}
		want := freshLibraryYield(t, reqs[i])
		if d := diffInsert(got[i].Insert, want.Insert); d != "" {
			t.Errorf("edit %d: %s", i, d)
		}
		if got[i].MeanPS != want.MeanPS || got[i].SigmaPS != want.SigmaPS ||
			got[i].YieldRATPS != want.YieldRATPS {
			t.Errorf("edit %d: yield %v/%v/%v, library %v/%v/%v", i, got[i].MeanPS,
				got[i].SigmaPS, got[i].YieldRATPS, want.MeanPS, want.SigmaPS, want.YieldRATPS)
		}
		if got[i].MonteCarlo == nil || *got[i].MonteCarlo != *want.MonteCarlo {
			t.Errorf("edit %d: Monte Carlo %+v, library %+v", i, got[i].MonteCarlo, want.MonteCarlo)
		}
	}
	if misses != 1 {
		t.Errorf("%d of %d edits missed the model cache, want 1 (the builder)", misses, edits)
	}
}

// TestSnapshotKeepsSharedModel evicts the tree a model was built from
// while an edit keeps the model hot: the snapshot must still carry a
// resolvable recipe, so the edit is a model hit after a restore.
func TestSnapshotKeepsSharedModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	lines := netLines(t, 20, 9)
	edited := InsertRequest{Algo: "wid",
		Tree: editField(t, lines, nodeLines(lines, "sink")[0], fieldRAT, func(v float64) float64 { return v - 10 })}

	s1, ts1 := newTestServer(t, Config{Workers: 2, TreeCacheSize: 2})
	postInsert(t, ts1.URL, InsertRequest{Tree: strings.Join(lines, "\n"), Algo: "wid"})
	// Two deterministic runs push the base net out of the tree LRU.
	postInsert(t, ts1.URL, InsertRequest{Bench: "p1", Algo: "nom"})
	postInsert(t, ts1.URL, InsertRequest{Tree: smallTreeText(t), Algo: "nom"})
	if res := postInsert(t, ts1.URL, edited); !res.ModelCacheHit || res.TreeCacheHit {
		t.Fatalf("edit before the snapshot: tree hit %t, model hit %t; want a model hit only",
			res.TreeCacheHit, res.ModelCacheHit)
	}
	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 2, TreeCacheSize: 2})
	stats, err := s2.RestoreSnapshot(path)
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if stats.Models != 1 || stats.Skipped != 0 {
		t.Fatalf("restore stats = %+v, want one model and nothing skipped", stats)
	}
	// A quantile-distinct request bypasses the restored result cache.
	edited.Quantile = 0.25
	if res := postInsert(t, ts2.URL, edited); !res.TreeCacheHit || !res.ModelCacheHit {
		t.Errorf("edit after the restore: tree hit %t, model hit %t; want both",
			res.TreeCacheHit, res.ModelCacheHit)
	}
}
