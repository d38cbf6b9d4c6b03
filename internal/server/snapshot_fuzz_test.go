package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// fuzzCacheSize is large enough that no fuzzed snapshot evicts an entry
// on restore, so the round trip below compares whole caches.
const fuzzCacheSize = 1 << 10

func fuzzSnapshotServer() *Server {
	return New(Config{Workers: 1, TreeCacheSize: fuzzCacheSize,
		ModelCacheSize: fuzzCacheSize, ResultCacheSize: fuzzCacheSize})
}

// FuzzSnapshotRestore property-tests warm restart, which reads a file
// that a crash, a full disk or a hand edit may have mangled. With
// rehash set, the harness recomputes every entry's checksum first, so
// mutated entries get past the checksum to the tree parser, the model
// rebuild and the result decoder. Properties:
//
//   - restore never panics and fails only for a document that does not
//     parse or has another version;
//   - otherwise every entry is either restored or counted as skipped;
//   - saving the restored server and restoring that file into a fresh
//     server restores exactly what the first server's caches hold, with
//     nothing skipped. Those counts can differ from the first restore's:
//     a model regenerates its benchmark tree into the tree cache, and a
//     key that repeats fills one slot.
func FuzzSnapshotRestore(f *testing.F) {
	// The seed snapshot holds one small inline tree, its wid and d2d
	// models and three results. A benchmark tree would make it ~60 KB,
	// and the fuzzer spends its budget minimizing inputs that large.
	warm := fuzzSnapshotServer()
	h := warm.Handler()
	tree := smallTreeText(f)
	for _, req := range []struct {
		path string
		body any
	}{
		{"/v1/insert", InsertRequest{Tree: tree, Algo: "nom"}},
		{"/v1/insert", InsertRequest{Tree: tree, Algo: "wid"}},
		{"/v1/yield", YieldRequest{InsertRequest: InsertRequest{Tree: tree, Algo: "d2d"}, MonteCarlo: 64}},
	} {
		body, err := json.Marshal(req.body)
		if err != nil {
			f.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			f.Fatalf("warm-up %s: status %d: %s", req.path, rec.Code, rec.Body)
		}
	}
	path := filepath.Join(f.TempDir(), "seed.snap")
	if err := warm.SaveSnapshot(path); err != nil {
		f.Fatal(err)
	}
	warm.Close()
	snap, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap, false)
	f.Add(snap, true)
	f.Add([]byte(`{"version":1,"entries":[{"kind":"model","tree_key":"bench:p1","algo":"wid","budget":0.15}]}`), true)
	f.Add([]byte(`{"version":1,"entries":[{"kind":"tree","key":"k","tree":"garbage"},{"kind":"mystery"}]}`), true)
	f.Add([]byte(`{"version":2,"entries":[]}`), false)
	f.Add([]byte(`{"version":1} trailing`), false)
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, data []byte, rehash bool) {
		var doc snapshotFile
		parseErr := json.Unmarshal(data, &doc)
		if rehash && parseErr == nil {
			for i := range doc.Entries {
				doc.Entries[i].SHA256 = doc.Entries[i].computeChecksum()
			}
			var err error
			if data, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		in := filepath.Join(dir, "in.snap")
		if err := os.WriteFile(in, data, 0o600); err != nil {
			t.Fatal(err)
		}

		s1 := fuzzSnapshotServer()
		defer s1.Close()
		got, err := s1.RestoreSnapshot(in)
		if wantErr := parseErr != nil || doc.Version != snapshotVersion; (err != nil) != wantErr {
			t.Fatalf("restore error = %v, want an error: %t", err, wantErr)
		}
		if err != nil {
			return
		}
		if n := got.Trees + got.Models + got.Results + got.Skipped; n != len(doc.Entries) {
			t.Fatalf("restore stats %+v account for %d of %d entries", got, n, len(doc.Entries))
		}

		out := filepath.Join(dir, "out.snap")
		if err := s1.SaveSnapshot(out); err != nil {
			t.Fatalf("saving the restored server: %v", err)
		}
		s2 := fuzzSnapshotServer()
		defer s2.Close()
		again, err := s2.RestoreSnapshot(out)
		if err != nil {
			t.Fatalf("restoring a saved snapshot: %v", err)
		}
		want := RestoreStats{
			Trees:   len(s1.trees.entries()),
			Models:  len(s1.models.entries()),
			Results: len(s1.results.entries()),
		}
		if again != want {
			t.Fatalf("second restore = %+v, want %+v (first restore %+v)", again, want, got)
		}
	})
}
