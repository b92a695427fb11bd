// Package store implements the persistent metrics tier behind the
// batch cache: Disk keeps one file per canonical job fingerprint under
// a content-addressed directory, so table and bench runs are
// incremental across processes. The batch cache reads through its own
// in-memory tiers to a Store and writes every computed result back.
package store

import "repro/internal/sched"

// Store persists normalized scheduling metrics keyed by the canonical
// job fingerprint. Implementations must be safe for concurrent use.
// Get never fails loudly: an entry that cannot be trusted (corrupt,
// stale schema, mismatched fingerprint) is reported as a miss and the
// caller recomputes.
type Store interface {
	// Get returns the metrics stored under key.
	Get(key string) (sched.Metrics, bool)
	// Put stores metrics under key. Best-effort for persistent tiers:
	// a failed write is recorded in Stats, never surfaced — the store
	// is a cache, losing a write only costs a future recompute.
	Put(key string, m sched.Metrics)
	// Stats reports the store's counters since creation.
	Stats() Stats
}

// Stats are a store's observability counters.
type Stats struct {
	// Rejected counts entries found but not trusted — truncated or
	// corrupt files, schema-version mismatches, fingerprint mismatches.
	// Each rejected Get is a miss.
	Rejected uint64
	// WriteErrors counts Puts that failed to persist; each failed Put
	// is dropped after one attempt.
	WriteErrors uint64
	// ReadErrors counts Gets that failed with a real I/O error (a plain
	// not-exist miss is not an error). Each failed Get is a miss.
	ReadErrors uint64
	// Entries and Bytes describe the store's current contents.
	Entries int
	Bytes   int64
}
