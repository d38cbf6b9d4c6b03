package server

// Test-only fault injection. A Server carries an optional *faultHooks
// that production code never sets (there is no flag or config field for
// it); tests install hooks before serving traffic to force panics, slow
// or held jobs, snapshot-write failures, and snapshot corruption
// deterministically. Every hook site is a nil check on the hot path —
// zero cost when unset.
type faultHooks struct {
	// beforeJob runs at the start of every pool job with the endpoint
	// that submitted it. Panic here to simulate a crashing DP run, sleep
	// to simulate a slow one, or block to hold a worker busy.
	beforeJob func(endpoint string)

	// snapshotWrite intercepts the serialized snapshot before it reaches
	// the filesystem. Return an error to fail the write, or transformed
	// bytes to corrupt the file wholesale.
	snapshotWrite func(data []byte) ([]byte, error)

	// corruptSnapshotEntry mutates one snapshot entry after its checksum
	// has been computed, so the restore-side validation must catch the
	// mismatch and skip the entry.
	corruptSnapshotEntry func(e *snapshotEntry)

	// beforeRestoreEntry runs before each snapshot entry is restored.
	// Block here to hold the server in the restoring state.
	beforeRestoreEntry func(kind, key string)
}

// faultBeforeJob fires the beforeJob hook, if any.
func (s *Server) faultBeforeJob(endpoint string) {
	if s.faults != nil && s.faults.beforeJob != nil {
		s.faults.beforeJob(endpoint)
	}
}
