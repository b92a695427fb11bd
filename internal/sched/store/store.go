// Package store implements the two-tier result store behind the batch
// cache: a metrics tier keyed by the canonical job fingerprint that is
// cheap enough to retain every result ever computed, and a separate,
// tightly capped raw tier for the heavyweight native scheduling
// results (unwound graphs run to megabytes) that only validation and
// figure paths request.
//
// Two Store implementations exist: Memory (the in-process LRU the
// batch engine has always used) and Disk (one file per fingerprint
// under a content-addressed directory, so table and bench runs are
// incremental across processes). The batch cache composes them
// read-through/write-through: memory, then disk, then compute.
package store

import (
	"repro/internal/lru"
	"repro/internal/sched"
	"sync/atomic"
)

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
	// Hits and Misses count Get outcomes.
	Hits, Misses uint64
	// Rejected counts entries found but not trusted — truncated or
	// corrupt files, schema-version mismatches, fingerprint mismatches.
	// Each rejection also counts as a miss.
	Rejected uint64
	// WriteErrors counts Puts that failed to persist; each failed Put
	// is dropped after one attempt.
	WriteErrors uint64
	// ReadErrors counts Gets that failed with a real I/O error (a plain
	// not-exist miss is not an error). Each also counts as a miss.
	ReadErrors uint64
	// Entries and Bytes describe the store's current contents (metrics
	// tier only; for Memory, Bytes is zero — entries are in-heap).
	Entries int
	Bytes   int64
}

// DefaultRawCapacity is the raw-tier cap a Memory store uses when the
// caller does not choose one: a handful, because each entry pins a
// full unwound scheduled graph.
const DefaultRawCapacity = 8

// Memory is the in-process implementation: a metrics LRU sized to
// retain the whole working set, plus the capped raw tier. Metrics are
// stored by value, so a Get hands back a private copy and no aliasing
// is possible; raw attachments are shared pointers guarded by the
// sched.Result accessor contract.
type Memory struct {
	metrics *lru.Cache[string, sched.Metrics]
	raws    *lru.Cache[string, any]

	hits, misses atomic.Uint64
}

// NewMemory returns a memory store holding up to capacity metrics
// entries and rawCapacity raw attachments (<= 0 means
// DefaultRawCapacity).
func NewMemory(capacity, rawCapacity int) *Memory {
	if rawCapacity <= 0 {
		rawCapacity = DefaultRawCapacity
	}
	return &Memory{
		metrics: lru.New[string, sched.Metrics](capacity),
		raws:    lru.New[string, any](rawCapacity),
	}
}

// Get returns the metrics under key, marking them most recently used.
func (s *Memory) Get(key string) (sched.Metrics, bool) {
	m, ok := s.metrics.Get(key)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return m, ok
}

// Put stores metrics under key.
func (s *Memory) Put(key string, m sched.Metrics) { s.metrics.Put(key, m) }

// GetRaw returns the raw attachment under key. The returned value is
// shared — see (*sched.Result).Raw for the read-only contract.
func (s *Memory) GetRaw(key string) (any, bool) { return s.raws.Get(key) }

// PutRaw stores a raw attachment under key, evicting the least
// recently used attachment beyond the raw-tier cap.
func (s *Memory) PutRaw(key string, raw any) { s.raws.Put(key, raw) }

// Len returns the number of metrics entries.
func (s *Memory) Len() int { return s.metrics.Len() }

// RawLen returns the number of raw-tier entries.
func (s *Memory) RawLen() int { return s.raws.Len() }

// Stats reports hit/miss counters and the current entry count.
func (s *Memory) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Entries: s.metrics.Len(),
	}
}
