package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"secddr/internal/sim"
)

// checkpointV1 is the legacy checkpoint file shape: one JSON document
// holding the whole digest -> result table.
type checkpointV1 struct {
	Version int                   `json:"version"`
	Entries map[string]sim.Result `json:"entries"`
}

// MigrateCheckpoint imports every entry of a legacy checkpoint-v1 file
// into the store in one shot and reports how many entries were new.
// Already-present digests are skipped (not re-appended), so re-running a
// migration is idempotent and free. The source file is left untouched —
// delete it once the migrated store has proven itself.
func MigrateCheckpoint(path string, s *Store) (migrated int, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("resultstore: reading checkpoint: %w", err)
	}
	var f checkpointV1
	if err := json.Unmarshal(raw, &f); err != nil {
		return 0, fmt.Errorf("resultstore: corrupt checkpoint %s: %w", path, err)
	}
	if f.Version != 1 {
		return 0, fmt.Errorf("resultstore: checkpoint %s has version %d, can only migrate version 1", path, f.Version)
	}
	// Record in sorted-digest order, not map order: the segment a
	// migration writes is then byte-identical across runs, and a
	// mid-migration failure always leaves the same prefix behind.
	digests := make([]string, 0, len(f.Entries))
	for digest := range f.Entries {
		digests = append(digests, digest)
	}
	sort.Strings(digests)
	for _, digest := range digests {
		if _, ok := s.Lookup(digest); ok {
			continue
		}
		if err := s.Record(digest, f.Entries[digest]); err != nil {
			return migrated, err
		}
		migrated++
	}
	return migrated, nil
}
