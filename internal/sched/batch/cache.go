package batch

import (
	"repro/internal/lru"
	"repro/internal/sched"
	"repro/internal/sched/store"
)

// Tier identifies which tier of the result store served a lookup.
type Tier uint8

const (
	// TierCompute: nothing served it — the caller ran the scheduler.
	TierCompute Tier = iota
	// TierMemory: the in-process metrics tier (raw tier too, when the
	// request wanted the raw attachment).
	TierMemory
	// TierDisk: the persistent metrics tier; the entry was promoted to
	// the memory tier on the way out.
	TierDisk
)

// String names the tier for reports ("compute", "memory", "disk").
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	default:
		return "compute"
	}
}

// defaultRawCapacity is the raw-tier cap a cache uses when the caller
// does not choose one: a handful, because each entry pins a full
// unwound scheduled graph.
const defaultRawCapacity = 8

// Cache is the read-through/write-through result store the batch
// engine consults before running a job: the memory metrics tier, then
// (for a WantRaw job) the capped raw tier, then the disk tier when one
// was given at construction, then compute. A computed result is written
// back to every tier; errors are never stored. Every cached value is a
// pure function of its key, so two workers that miss on the same key
// at once both compute and store the same answer — no coordination is
// needed.
//
// Metrics move between tiers by value, so no two callers ever alias a
// cached metrics record. Raw attachments live only in the capped
// in-memory raw tier and ARE shared pointers — the aliasing contract
// is owned by sched.Result: Raw() is read-only, CloneRaw() for
// mutation.
type Cache struct {
	metrics *lru.Cache[string, sched.Metrics]
	raws    *lru.Cache[string, any]
	disk    store.Store
}

// NewCache returns a memory-only cache holding up to capacity metrics
// entries (and defaultRawCapacity raw attachments).
func NewCache(capacity int) *Cache {
	return NewTieredCache(capacity, 0, nil)
}

// NewTieredCache composes the full store: a memory tier of capacity
// metrics entries and rawCapacity raw attachments (<= 0 means
// defaultRawCapacity), over an optional persistent disk tier.
func NewTieredCache(capacity, rawCapacity int, disk store.Store) *Cache {
	if rawCapacity <= 0 {
		rawCapacity = defaultRawCapacity
	}
	return &Cache{
		metrics: lru.New[string, sched.Metrics](capacity),
		raws:    lru.New[string, any](rawCapacity),
		disk:    disk,
	}
}

// getOrCompute returns the result under key and the tier that served
// it; TierCompute means compute ran. A WantRaw request is served from
// memory only when the raw attachment is resident, and never from disk
// (raw graphs are not persisted), so it may recompute a cell whose
// metrics are long cached; compute is responsible for requesting the
// attachment it needs.
func (c *Cache) getOrCompute(key string, want sched.Want, compute func() (*sched.Result, error)) (*sched.Result, Tier, error) {
	if m, ok := c.metrics.Get(key); ok {
		if want != sched.WantRaw {
			return sched.NewResult(m, nil), TierMemory, nil
		}
		if raw, ok := c.raws.Get(key); ok {
			return sched.NewResult(m, raw), TierMemory, nil
		}
	} else if want != sched.WantRaw && c.disk != nil {
		if m, ok := c.disk.Get(key); ok {
			c.metrics.Put(key, m) // promote, so reruns stay in memory
			return sched.NewResult(m, nil), TierDisk, nil
		}
	}
	res, err := compute()
	if err != nil {
		return nil, TierCompute, err
	}
	c.metrics.Put(key, res.Metrics)
	if raw := res.Raw(); raw != nil {
		c.raws.Put(key, raw)
	}
	if c.disk != nil {
		c.disk.Put(key, res.Metrics)
	}
	return res, TierCompute, nil
}

// Len returns the number of metrics entries in the memory tier.
func (c *Cache) Len() int { return c.metrics.Len() }

// RawLen returns the number of raw attachments resident in the capped
// raw tier.
func (c *Cache) RawLen() int { return c.raws.Len() }
