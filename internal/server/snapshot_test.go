package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// warmServer runs one nom request on bench p1 (tree only) and one wid
// request on an inline tree (tree + variation model), so both caches
// hold something worth snapshotting.
func warmServer(t *testing.T, url, treeText string) {
	t.Helper()
	for _, req := range []InsertRequest{
		{Bench: "p1", Algo: "nom"},
		{Tree: treeText, Algo: "wid"},
	} {
		resp, raw := postJSON(t, url+"/v1/insert", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up status %d: %s", resp.StatusCode, raw)
		}
	}
}

func TestSnapshotSaveRestoreWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	treeText := smallTreeText(t)

	s1, ts1 := newTestServer(t, Config{Workers: 2})
	warmServer(t, ts1.URL, treeText)
	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	// A fresh server restores the snapshot: both trees and the wid model
	// come back, so the first request for a previously-seen tree is a
	// cache hit on both layers.
	s2, ts2 := newTestServer(t, Config{Workers: 2})
	stats, err := s2.RestoreSnapshot(path)
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if stats.Trees != 2 || stats.Models != 1 || stats.Skipped != 0 {
		t.Fatalf("restore stats = %+v, want {Trees:2 Models:1 Skipped:0}", stats)
	}

	// A quantile-distinct request misses the restored result cache (the
	// warm-up's exact request would answer from it verbatim) but still
	// resolves its tree and model through the restored LRUs.
	resp, raw := postJSON(t, ts2.URL+"/v1/insert",
		InsertRequest{Tree: treeText, Algo: "wid", Quantile: 0.25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restore status %d: %s", resp.StatusCode, raw)
	}
	var res InsertResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !res.TreeCacheHit || !res.ModelCacheHit {
		t.Errorf("post-restore hits: tree=%t model=%t, want both true",
			res.TreeCacheHit, res.ModelCacheHit)
	}

	var met map[string]any
	getJSON(t, ts2.URL+"/metrics", &met)
	snap := met["snapshot"].(map[string]any)
	if got := snap["restored_trees"].(float64); got != 2 {
		t.Errorf("snapshot.restored_trees = %g, want 2", got)
	}
	if got := snap["restored_models"].(float64); got != 1 {
		t.Errorf("snapshot.restored_models = %g, want 1", got)
	}
	if got := snap["skipped"].(float64); got != 0 {
		t.Errorf("snapshot.skipped = %g, want 0", got)
	}
	// The saving server counted its write.
	getJSON(t, ts1.URL+"/metrics", &met)
	if got := met["snapshot"].(map[string]any)["saves"].(float64); got != 1 {
		t.Errorf("snapshot.saves = %g, want 1", got)
	}
}

func TestSnapshotCorruptEntriesSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	treeText := smallTreeText(t)

	s1, ts1 := newTestServer(t, Config{Workers: 2})
	// Flip the checksum of the inline tree's entry after it is computed:
	// restore must reject the tree, and then the model built against it
	// (its tree neither restored nor regenerable) falls with it.
	s1.faults = &faultHooks{corruptSnapshotEntry: func(e *snapshotEntry) {
		if e.Kind == "tree" && e.Key[:5] == "text:" {
			e.SHA256 = "0000" + e.SHA256[4:]
		}
	}}
	warmServer(t, ts1.URL, treeText)
	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 2})
	stats, err := s2.RestoreSnapshot(path)
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if stats.Trees != 1 || stats.Models != 0 || stats.Skipped != 2 {
		t.Fatalf("restore stats = %+v, want {Trees:1 Models:0 Skipped:2}", stats)
	}
	// The surviving benchmark tree still warm-starts, and the server keeps
	// serving the corrupted tree's requests from cold.
	resp, raw := postJSON(t, ts2.URL+"/v1/insert", InsertRequest{Tree: treeText, Algo: "wid"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restore status %d: %s", resp.StatusCode, raw)
	}
	var met map[string]any
	getJSON(t, ts2.URL+"/metrics", &met)
	if got := met["snapshot"].(map[string]any)["skipped"].(float64); got != 2 {
		t.Errorf("snapshot.skipped = %g, want 2", got)
	}
}

func TestSnapshotWriteFailureCountedAndAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	if err := os.WriteFile(path, []byte("previous good snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Workers: 1})
	s.faults = &faultHooks{snapshotWrite: func([]byte) ([]byte, error) {
		return nil, errors.New("disk full")
	}}
	if err := s.SaveSnapshot(path); err == nil {
		t.Fatal("SaveSnapshot succeeded despite injected write failure")
	}
	// The failed write never touched the previous snapshot.
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "previous good snapshot" {
		t.Fatalf("previous snapshot disturbed: %q, %v", data, err)
	}
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	snap := met["snapshot"].(map[string]any)
	if got := snap["save_errors"].(float64); got != 1 {
		t.Errorf("snapshot.save_errors = %g, want 1", got)
	}
	if got := snap["saves"].(float64); got != 0 {
		t.Errorf("snapshot.saves = %g, want 0", got)
	}
}

func TestSnapshotRejectsBadFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{Workers: 1})

	if _, err := s.RestoreSnapshot(filepath.Join(dir, "missing.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want ErrNotExist", err)
	}

	garbled := filepath.Join(dir, "garbled.snap")
	os.WriteFile(garbled, []byte("{not json"), 0o644)
	if _, err := s.RestoreSnapshot(garbled); err == nil {
		t.Error("garbled snapshot restored without error")
	}

	wrongVersion := filepath.Join(dir, "v99.snap")
	os.WriteFile(wrongVersion, []byte(`{"version": 99, "entries": []}`), 0o644)
	if _, err := s.RestoreSnapshot(wrongVersion); err == nil {
		t.Error("future-version snapshot restored without error")
	}
}

func TestPeriodicSnapshotTicker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	_, ts := newTestServer(t, Config{
		Workers:       1,
		SnapshotPath:  path,
		SnapshotEvery: 10 * time.Millisecond,
	})
	resp, raw := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Bench: "p1", Algo: "nom"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	waitFor(t, func() bool {
		data, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		var doc snapshotFile
		return json.Unmarshal(data, &doc) == nil && len(doc.Entries) >= 1
	}, "periodic snapshot written with at least one entry")
}

// preKeyedYieldKey is the yield fingerprint from before the keyed
// Monte-Carlo stream: no stream name, and samplers named serial and
// sharded after the streams they drew.
func preKeyedYieldKey(r *YieldRequest, epoch string) string {
	sampler := "serial"
	switch {
	case r.MonteCarlo <= 0:
		sampler = "none"
	case r.MCTol > 0:
		sampler = "adaptive"
	case r.Parallelism > 1:
		sampler = "sharded"
	}
	h := sha256.New()
	r.InsertRequest.writeFingerprint(h, "yield", epoch)
	fmt.Fprintf(h, "\x00mc=%d\x00seed=%d\x00sampler=%s\x00tol=%g",
		r.MonteCarlo, r.Seed, sampler, r.MCTol)
	return "yld:" + hex.EncodeToString(h.Sum(nil))
}

// TestSnapshotPreKeyedYieldNotServed restores a yield result saved under
// its request's pre-keyed-stream key, for a fixed-budget and an adaptive
// request: each must run afresh rather than answer with the old stream's
// samples. A result saved under
// the current key of another request is the control: restore files it
// and that request is answered from it.
func TestSnapshotPreKeyedYieldNotServed(t *testing.T) {
	normalized := func(r YieldRequest) *YieldRequest {
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	// The helper reproduces a pin recorded before the switch.
	if got, want := preKeyedYieldKey(normalized(YieldRequest{
		InsertRequest: InsertRequest{Bench: "p1", Algo: "wid"}, MonteCarlo: 128}), ""),
		"yld:fc04c7998477efe39fcfd618dd049ec92668b31ee381dde089acc7f55939620b"; got != want {
		t.Fatalf("pre-keyed key %s, want %s", got, want)
	}
	treeText := smallTreeText(t)
	stale := YieldRequest{InsertRequest: InsertRequest{Tree: treeText, Algo: "wid"}, MonteCarlo: 64, Seed: 3}
	staleAdaptive := stale
	staleAdaptive.MCTol = 0.05
	control := stale
	control.Seed = 4
	poisoned := func(key string) snapshotEntry {
		body, err := json.Marshal(YieldResult{MeanPS: -1, MonteCarlo: &MonteCarloDTO{Samples: 64, MeanPS: -12345}})
		if err != nil {
			t.Fatal(err)
		}
		e := snapshotEntry{Kind: "yield_result", Key: key, Result: body}
		e.SHA256 = e.computeChecksum()
		return e
	}
	doc, err := json.Marshal(snapshotFile{Version: snapshotVersion, Entries: []snapshotEntry{
		poisoned(preKeyedYieldKey(normalized(stale), "")),
		poisoned(preKeyedYieldKey(normalized(staleAdaptive), "")),
		poisoned(normalized(control).Fingerprint("")),
	}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "caches.snap")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 2})
	stats, err := s.RestoreSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results != 3 || stats.Skipped != 0 {
		t.Fatalf("restore stats = %+v, want 3 results restored", stats)
	}
	for _, c := range []struct {
		req    YieldRequest
		served bool
	}{{stale, false}, {staleAdaptive, false}, {control, true}} {
		resp, raw := postJSON(t, ts.URL+"/v1/yield", c.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", c.req, resp.StatusCode, raw)
		}
		var res YieldResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.MonteCarlo == nil {
			t.Fatalf("seed %d tol %g: no Monte-Carlo result: %s", c.req.Seed, c.req.MCTol, raw)
		}
		if served := res.MonteCarlo.MeanPS == -12345; served != c.served {
			t.Errorf("seed %d tol %g: answered from the restored entry %v, want %v",
				c.req.Seed, c.req.MCTol, served, c.served)
		}
	}
}
