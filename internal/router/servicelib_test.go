package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"vabuf"
	"vabuf/internal/server"
)

// TestServiceMatchesLibrary: an insert answered through vabufr→vabufd
// equals vabuf.Insert on the same tree and options bit for bit — mean,
// sigma, objective and assignment — for both rules, both hull settings
// and one or two DP workers, first with the backends' subtree caches
// cold, then warm. The result cache is off, so the repeat reaches the DP.
func TestServiceMatchesLibrary(t *testing.T) {
	fleet := newFleetConfig(t, 2, server.Config{ResultCacheSize: -1})
	_, ts := newTestRouter(t, fleet)
	seed := int64(40)
	for _, rule := range []string{"2p", "4p"} {
		for _, hull := range []string{"auto", "off"} {
			for _, par := range []int{1, 2} {
				seed++ // a net of its own, so the first pass is cold
				// 4P keeps every candidate whose bands overlap; three
				// buffer sites keep its lists small.
				sites := -1
				if rule == "4p" {
					sites = 3
				}
				text := sparseNet(t, seed, sites)
				t.Run(fmt.Sprintf("%s/hull=%s/par=%d", rule, hull, par), func(t *testing.T) {
					want := libraryInsert(t, text, rule, hull, par)
					req := server.InsertRequest{Tree: text, Algo: "wid", Rule: rule, Hull: hull,
						Parallelism: par, IncludeAssignment: true}
					for _, pass := range []string{"cold", "warm"} {
						got := routedInsert(t, ts.URL, req)
						if d := diffLibrary(got, want); d != "" {
							t.Errorf("%s: %s", pass, d)
						}
						if hits := got.Stats.SubtreeHits; (pass == "warm") != (hits > 0) {
							t.Errorf("%s pass answered %d subtree-cache hits", pass, hits)
						}
					}
				})
			}
		}
	}
}

// sparseNet is a 12-sink benchgen net in rctree text that keeps only the
// first sites buffer sites (all of them when sites < 0).
func sparseNet(t *testing.T, seed int64, sites int) string {
	t.Helper()
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Name: "svc", Sinks: 12, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vabuf.WriteTree(&buf, tree); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	for i, line := range lines {
		// node <id> <kind> <x> <y> <parent> <wire> <bufok> <cap> <rat> <name>
		f := strings.Fields(line)
		if len(f) < 11 || f[0] != "node" || f[7] != "1" {
			continue
		}
		if sites == 0 {
			f[7] = "0"
			lines[i] = strings.Join(f, " ")
		} else {
			sites--
		}
	}
	return strings.Join(lines, "\n")
}

// libraryRun is the library's answer in the terms the DTO reports.
type libraryRun struct {
	mean, sigma, objective float64
	assignment             map[int]string // node → buffer name
}

// libraryInsert runs vabuf.Insert on a fresh WID model with options
// written out by hand from the request's fields and the service's
// defaults (pbar 0.5, quantile 0.05, 15% per-class budget).
func libraryInsert(t *testing.T, text, rule, hull string, par int) libraryRun {
	t.Helper()
	tree, err := vabuf.ReadTree(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	cfg := vabuf.DefaultModelConfig(tree)
	cfg.RandomFrac, cfg.SpatialFrac, cfg.InterDieFrac = 0.15, 0.15, 0.15
	cfg.Heterogeneous = true
	model, err := vabuf.NewVariationModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	opts := vabuf.Options{
		Library:        lib,
		Model:          model,
		PbarL:          0.5,
		PbarT:          0.5,
		SelectQuantile: 0.05,
		Parallelism:    par,
	}
	if rule == "4p" {
		opts.Rule = vabuf.Rule4P
	}
	if hull == "off" {
		opts.HullBuffering = vabuf.HullOff
	}
	res, err := vabuf.Insert(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := libraryRun{mean: res.Mean, sigma: res.Sigma, objective: res.Objective,
		assignment: make(map[int]string, len(res.Assignment))}
	for id, b := range res.Assignment {
		run.assignment[int(id)] = lib[b].Name
	}
	return run
}

// routedInsert posts req to the router's /v1/insert and decodes the 200.
func routedInsert(t *testing.T, url string, req server.InsertRequest) server.InsertResult {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/insert", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/insert answered %d: %s", resp.StatusCode, raw)
	}
	var res server.InsertResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// diffLibrary reports how a served answer differs from the library's, or
// "" when they agree bit for bit.
func diffLibrary(got server.InsertResult, want libraryRun) string {
	if got.MeanPS != want.mean || got.SigmaPS != want.sigma || got.ObjectivePS != want.objective {
		return fmt.Sprintf("mean/sigma/objective %v/%v/%v, library %v/%v/%v",
			got.MeanPS, got.SigmaPS, got.ObjectivePS, want.mean, want.sigma, want.objective)
	}
	served := make(map[int]string, len(got.Assignment))
	for _, a := range got.Assignment {
		served[a.Node] = a.Buffer
	}
	if len(served) != len(want.assignment) {
		return fmt.Sprintf("%d buffers, library %d", len(served), len(want.assignment))
	}
	for node, name := range want.assignment {
		if served[node] != name {
			return fmt.Sprintf("node %d has %q, library %q", node, served[node], name)
		}
	}
	return ""
}
