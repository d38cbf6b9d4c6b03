package server

// Cache snapshot / warm restart. A restart used to cold-start both LRU
// caches, so the first request for every tree paid benchmark generation
// (or parsing) and variation-grid construction again. vabufd now writes
// a snapshot file on graceful drain (and on a -snapshot-every ticker)
// and restores it on boot:
//
//   - Tree entries persist the rctree text (the format already
//     round-trips bit-exactly) plus a SHA-256 checksum.
//   - Model entries persist only the build recipe (tree key, algo,
//     budget, heterogeneity) — variation models rebuild
//     deterministically from config, so serializing the grids would be
//     pure bloat.
//
// The write is atomic (temp file + rename in the target directory), so a
// crash mid-write leaves the previous snapshot intact. Restore validates
// every entry (checksum, then parse/rebuild) and skips corrupt ones with
// a counter instead of failing startup — a truncated or hand-edited
// snapshot degrades to a partial warm start, never a crash loop.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vabuf"
)

// snapshotVersion is bumped when the entry schema changes; restore
// refuses other versions (counted as a restore error, not a crash).
const snapshotVersion = 1

// snapshotEntry is one cache slot in the snapshot file.
type snapshotEntry struct {
	// Kind is "tree", "model", "insert_result", or "yield_result".
	Kind string `json:"kind"`
	// Key is the LRU key the entry is restored under, verbatim (for
	// result kinds, the request fingerprint).
	Key string `json:"key"`
	// Tree is the rctree text (kind "tree" only).
	Tree string `json:"tree,omitempty"`
	// TreeKey/Algo/Budget/Heterogeneous are the model build recipe
	// (kind "model" only). TreeKey names the tree-cache entry the model
	// is built against.
	TreeKey       string  `json:"tree_key,omitempty"`
	Algo          string  `json:"algo,omitempty"`
	Budget        float64 `json:"budget,omitempty"`
	Heterogeneous bool    `json:"heterogeneous,omitempty"`
	// Result is the cached response body, verbatim (result kinds only).
	Result json.RawMessage `json:"result,omitempty"`
	// SHA256 covers every semantic field above; restore recomputes and
	// skips the entry on mismatch.
	SHA256 string `json:"sha256"`
}

// computeChecksum hashes the semantic fields of the entry. Result bytes
// are folded in only when present, so tree/model checksums are
// unchanged from snapshots written before result entries existed. The
// Result JSON is hashed in compact form: MarshalIndent re-indents raw
// messages on the way to disk, and the checksum must survive that.
func (e *snapshotEntry) computeChecksum() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s\x00%g\x00%t",
		e.Kind, e.Key, e.Tree, e.TreeKey, e.Algo, e.Budget, e.Heterogeneous)
	if len(e.Result) > 0 {
		h.Write([]byte{0})
		var compact bytes.Buffer
		if err := json.Compact(&compact, e.Result); err == nil {
			h.Write(compact.Bytes())
		} else {
			h.Write(e.Result)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// snapshotFile is the on-disk document.
type snapshotFile struct {
	Version int    `json:"version"`
	SavedAt string `json:"saved_at"`
	// Entries are ordered most-recently-used first, trees before models.
	Entries []snapshotEntry `json:"entries"`
}

// RestoreStats reports the outcome of a snapshot restore.
type RestoreStats struct {
	Trees   int // tree entries restored
	Models  int // model entries restored (rebuilt from their recipe)
	Results int // insert/yield result entries restored into the result cache
	Skipped int // entries dropped: bad checksum, parse error, missing tree
}

// marshalSnapshot assembles the snapshot document from the live caches.
func (s *Server) marshalSnapshot() ([]byte, error) {
	doc := snapshotFile{
		Version: snapshotVersion,
		SavedAt: time.Now().UTC().Format(time.RFC3339),
	}
	for _, ce := range s.trees.entries() {
		tree, ok := ce.val.(*vabuf.Tree)
		if !ok {
			continue
		}
		var buf strings.Builder
		if err := vabuf.WriteTree(&buf, tree); err != nil {
			return nil, fmt.Errorf("serializing tree %q: %w", ce.key, err)
		}
		e := snapshotEntry{Kind: "tree", Key: ce.key, Tree: buf.String()}
		e.SHA256 = e.computeChecksum()
		if s.faults != nil && s.faults.corruptSnapshotEntry != nil {
			s.faults.corruptSnapshotEntry(&e)
		}
		doc.Entries = append(doc.Entries, e)
	}
	for _, ce := range s.models.entries() {
		me, ok := ce.val.(*modelEntry)
		if !ok {
			continue
		}
		e := snapshotEntry{
			Kind:          "model",
			Key:           ce.key,
			TreeKey:       *me.treeKey.Load(),
			Algo:          me.algo,
			Budget:        me.budget,
			Heterogeneous: me.hetero,
		}
		e.SHA256 = e.computeChecksum()
		if s.faults != nil && s.faults.corruptSnapshotEntry != nil {
			s.faults.corruptSnapshotEntry(&e)
		}
		doc.Entries = append(doc.Entries, e)
	}
	if s.results != nil {
		for _, ce := range s.results.entries() {
			var kind string
			switch ce.val.(type) {
			case *InsertResult:
				kind = "insert_result"
			case *YieldResult:
				kind = "yield_result"
			default:
				continue
			}
			body, err := json.Marshal(ce.val)
			if err != nil {
				return nil, fmt.Errorf("serializing result %q: %w", ce.key, err)
			}
			e := snapshotEntry{Kind: kind, Key: ce.key, Result: body}
			e.SHA256 = e.computeChecksum()
			if s.faults != nil && s.faults.corruptSnapshotEntry != nil {
				s.faults.corruptSnapshotEntry(&e)
			}
			doc.Entries = append(doc.Entries, e)
		}
	}
	return json.MarshalIndent(doc, "", " ")
}

// SaveSnapshot atomically writes the current cache contents to path:
// the document lands in a temp file in the same directory and is
// renamed over the target, so readers (and a crash mid-write) only ever
// see a complete snapshot. Failures are counted in /metrics under
// snapshot.save_errors and never disturb serving.
func (s *Server) SaveSnapshot(path string) error {
	err := s.saveSnapshot(path)
	if err != nil {
		s.met.snap.SaveErrors.Inc()
	} else {
		s.met.snap.Saves.Inc()
	}
	return err
}

func (s *Server) saveSnapshot(path string) error {
	data, err := s.marshalSnapshot()
	if err != nil {
		return err
	}
	if s.faults != nil && s.faults.snapshotWrite != nil {
		if data, err = s.faults.snapshotWrite(data); err != nil {
			return fmt.Errorf("writing snapshot: %w", err)
		}
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("writing snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("renaming snapshot into place: %w", err)
	}
	return nil
}

// RestoreSnapshot loads a snapshot written by SaveSnapshot, marking the
// server restoring (503 on /readyz) for the duration. Corrupt entries —
// checksum mismatch, unparsable tree, a model whose tree is gone — are
// skipped and counted, never fatal: the worst snapshot yields a cold
// cache, not a dead server. Only a missing/unreadable file or an
// unusable document returns an error, and callers are expected to log
// it and serve cold.
func (s *Server) RestoreSnapshot(path string) (RestoreStats, error) {
	s.state.restoring.Store(true)
	defer s.state.restoring.Store(false)
	return s.restoreSnapshot(path)
}

// RestoreSnapshotAsync marks the server restoring immediately and
// restores in the background, so the caller can bring the listener up
// first: /readyz answers 503 restoring until the warm-up finishes,
// while requests that race it still succeed against the cold caches.
func (s *Server) RestoreSnapshotAsync(path string, onDone func(RestoreStats, error)) {
	s.state.restoring.Store(true)
	go func() {
		defer s.state.restoring.Store(false)
		stats, err := s.restoreSnapshot(path)
		if onDone != nil {
			onDone(stats, err)
		}
	}()
}

func (s *Server) restoreSnapshot(path string) (RestoreStats, error) {
	var stats RestoreStats
	data, err := os.ReadFile(path)
	if err != nil {
		return stats, err
	}
	var doc snapshotFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return stats, fmt.Errorf("parsing snapshot %s: %w", path, err)
	}
	if doc.Version != snapshotVersion {
		return stats, fmt.Errorf("snapshot %s has version %d, want %d", path, doc.Version, snapshotVersion)
	}
	// Entries were saved most-recently-used first; restore in reverse so
	// the rebuilt LRU ends up in the original recency order. Trees first:
	// models resolve their tree through the tree cache.
	for i := len(doc.Entries) - 1; i >= 0; i-- {
		e := &doc.Entries[i]
		if e.Kind != "tree" {
			continue
		}
		if s.faults != nil && s.faults.beforeRestoreEntry != nil {
			s.faults.beforeRestoreEntry(e.Kind, e.Key)
		}
		if e.SHA256 != e.computeChecksum() {
			stats.Skipped++
			continue
		}
		tree, err := vabuf.ReadTree(strings.NewReader(e.Tree))
		if err != nil {
			stats.Skipped++
			continue
		}
		s.trees.add(e.Key, tree)
		stats.Trees++
	}
	for i := len(doc.Entries) - 1; i >= 0; i-- {
		e := &doc.Entries[i]
		if e.Kind == "tree" {
			continue
		}
		if s.faults != nil && s.faults.beforeRestoreEntry != nil {
			s.faults.beforeRestoreEntry(e.Kind, e.Key)
		}
		if e.SHA256 != e.computeChecksum() {
			stats.Skipped++
			continue
		}
		switch e.Kind {
		case "model":
			tree, err := s.treeForModelRestore(e.TreeKey)
			if err != nil {
				stats.Skipped++
				continue
			}
			entry, err := buildModelEntry(tree, e.TreeKey, e.Algo, e.Budget, e.Heterogeneous)
			if err != nil {
				stats.Skipped++
				continue
			}
			// File the model under the key its tree gives it now, not the
			// saved key: the key scheme is this binary's, the recipe is data.
			s.models.add(modelCacheKey(tree, e.Algo, e.Budget, e.Heterogeneous), entry)
			stats.Models++
		case "insert_result", "yield_result":
			// Dropped without counting when the result cache is off: the
			// entries are intact, this instance just chose not to keep them.
			if s.results == nil {
				continue
			}
			var val any
			var err error
			if e.Kind == "insert_result" {
				res := new(InsertResult)
				err = json.Unmarshal(e.Result, res)
				val = res
			} else {
				res := new(YieldResult)
				err = json.Unmarshal(e.Result, res)
				val = res
			}
			if err != nil {
				stats.Skipped++
				continue
			}
			s.results.add(e.Key, val)
			stats.Results++
		default:
			stats.Skipped++
		}
	}
	s.met.snap.RestoredTrees.Add(int64(stats.Trees))
	s.met.snap.RestoredModels.Add(int64(stats.Models))
	s.met.snap.RestoredResults.Add(int64(stats.Results))
	s.met.snap.Skipped.Add(int64(stats.Skipped))
	return stats, nil
}

// treeForModelRestore resolves the tree a snapshotted model was built
// against: from the (just-restored) tree cache, or by regenerating a
// built-in benchmark. An inline tree whose text entry was corrupt or
// evicted cannot be recovered — the model entry is skipped.
func (s *Server) treeForModelRestore(treeKey string) (*vabuf.Tree, error) {
	if v, ok := s.trees.peek(treeKey); ok {
		if tree, ok := v.(*vabuf.Tree); ok {
			return tree, nil
		}
	}
	if name, ok := strings.CutPrefix(treeKey, "bench:"); ok {
		tree, err := vabuf.GenerateBenchmark(name)
		if err != nil {
			return nil, err
		}
		s.trees.add(treeKey, tree)
		return tree, nil
	}
	return nil, fmt.Errorf("tree %q not in snapshot", treeKey)
}
