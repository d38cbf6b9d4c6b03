package server

// Cache-epoch tests. The epoch is a version string mixed into result
// fingerprints (but not into the router's empty-epoch routing keys):
// bumping it — after a buffer-library or variation-model change —
// invalidates every cached result fleet-wide, including results
// persisted in snapshots, without moving any ring partition.

import (
	"net/http"
	"path/filepath"
	"testing"
)

func TestEpochChangesFingerprintButNotRoutingKey(t *testing.T) {
	mk := func() InsertRequest {
		r := InsertRequest{Tree: smallTreeText(t), Algo: "wid"}
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	if a.Fingerprint("v1") == b.Fingerprint("v2") {
		t.Error("epoch bump did not change the cache fingerprint")
	}
	if a.Fingerprint("") != b.Fingerprint("") {
		t.Error("empty-epoch routing key is not stable across calls")
	}
	if a.Fingerprint("v1") != b.Fingerprint("v1") {
		t.Error("same-epoch fingerprints of identical requests differ")
	}
}

// TestEpochBumpInvalidatesWarmSnapshot is the fleet-wide invalidation
// path: a warm result cache snapshotted under epoch v1 must not serve
// hits after a restart with -epoch v2 — the restored entries are keyed
// by v1 fingerprints, which no v2 lookup ever computes.
func TestEpochBumpInvalidatesWarmSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "epoch.snapshot")
	req := InsertRequest{Tree: smallTreeText(t), Algo: "wid"}

	// Warm under v1 and verify the repeat hits, then snapshot.
	s1, ts1 := newTestServer(t, Config{Workers: 2, Epoch: "v1"})
	for i := 0; i < 2; i++ {
		if resp, raw := postJSON(t, ts1.URL+"/v1/insert", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up insert %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	var met map[string]any
	getJSON(t, ts1.URL+"/metrics", &met)
	result := met["caches"].(map[string]any)["result"].(map[string]any)
	if hits := result["hits"].(float64); hits < 1 {
		t.Fatalf("v1 repeat missed its own warm cache (hits = %g)", hits)
	}
	if err := s1.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	// Same epoch restore: the warm hit survives the restart (control).
	sSame, tsSame := newTestServer(t, Config{Workers: 2, Epoch: "v1"})
	if _, err := sSame.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if resp, raw := postJSON(t, tsSame.URL+"/v1/insert", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("same-epoch insert: status %d: %s", resp.StatusCode, raw)
	}
	getJSON(t, tsSame.URL+"/metrics", &met)
	result = met["caches"].(map[string]any)["result"].(map[string]any)
	if hits := result["hits"].(float64); hits < 1 {
		t.Errorf("same-epoch restore lost the warm hit (hits = %g)", hits)
	}

	// Bumped epoch restore: the identical request must recompute.
	s2, ts2 := newTestServer(t, Config{Workers: 2, Epoch: "v2"})
	if _, err := s2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if resp, raw := postJSON(t, ts2.URL+"/v1/insert", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-bump insert: status %d: %s", resp.StatusCode, raw)
	}
	getJSON(t, ts2.URL+"/metrics", &met)
	result = met["caches"].(map[string]any)["result"].(map[string]any)
	if hits := result["hits"].(float64); hits != 0 {
		t.Errorf("epoch-bumped instance served %g hits from a stale snapshot", hits)
	}
}
