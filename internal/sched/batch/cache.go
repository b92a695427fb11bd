package batch

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"

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
	// TierFlight: another caller's in-flight computation was shared.
	TierFlight
)

// String names the tier for reports ("compute", "memory", "disk",
// "flight").
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	case TierFlight:
		return "flight"
	default:
		return "compute"
	}
}

// Cache is the tiered result store the batch engine consults before
// running a job: memory, then disk (when attached), then compute —
// with write-through on the way back so both tiers see every computed
// result. Single-flight deduplication is preserved across tiers:
// concurrent requests for the same key share one computation instead
// of racing to the same answer.
//
// Metrics move between tiers by value, so no two callers ever alias a
// cached metrics record. Raw attachments live only in the capped
// in-memory raw tier and ARE shared pointers — the aliasing contract
// is owned by sched.Result: Raw() is read-only, CloneRaw() for
// mutation.
type Cache struct {
	mem *store.Memory

	memHits     atomic.Uint64
	diskHits    atomic.Uint64
	misses      atomic.Uint64
	quarantined atomic.Uint64

	mu      sync.Mutex
	disk    store.Store
	flights map[string]*flight
}

// flight is one in-progress computation other callers can wait on.
// res and err are written before done is closed, never after.
type flight struct {
	done chan struct{}
	res  *sched.Result
	err  error
}

// NewCache returns a memory-only cache holding up to capacity metrics
// entries (and store.DefaultRawCapacity raw attachments).
func NewCache(capacity int) *Cache {
	return NewTieredCache(capacity, 0, nil)
}

// NewTieredCache composes the full store: a memory tier of capacity
// metrics entries and rawCapacity raw attachments (<= 0 means
// store.DefaultRawCapacity), over an optional persistent disk tier.
func NewTieredCache(capacity, rawCapacity int, disk store.Store) *Cache {
	return &Cache{
		mem:     store.NewMemory(capacity, rawCapacity),
		disk:    disk,
		flights: make(map[string]*flight),
	}
}

// AttachDisk installs the persistent tier. Call it during setup,
// before the cache sees traffic; lookups already past the memory tier
// may miss the new disk tier but are never wrong.
func (c *Cache) AttachDisk(disk store.Store) {
	c.mu.Lock()
	c.disk = disk
	c.mu.Unlock()
}

// diskTier returns the attached persistent tier, if any.
func (c *Cache) diskTier() store.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// Get returns a result materialized from the memory metrics tier,
// without the raw attachment and without consulting the disk tier.
func (c *Cache) Get(key string) (*sched.Result, bool) {
	m, ok := c.mem.Get(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.memHits.Add(1)
	return sched.NewResult(m, nil), true
}

// Put stores a result: metrics into the memory tier (and the disk
// tier, when attached), the raw attachment — if present — into the
// capped raw tier.
func (c *Cache) Put(key string, res *sched.Result) {
	c.publish(key, res, c.diskTier())
}

// publish is the single write-through path: metrics into the memory
// tier and (when attached) disk, the raw attachment into the capped
// raw tier.
func (c *Cache) publish(key string, res *sched.Result, disk store.Store) {
	c.mem.Put(key, res.Metrics)
	if raw := res.Raw(); raw != nil {
		c.mem.PutRaw(key, raw)
	}
	if disk != nil {
		disk.Put(key, res.Metrics)
	}
}

// memLookup materializes a result from the memory tiers, honoring
// want: a WantRaw request hits only when both the metrics AND the raw
// attachment are resident. Callers hold c.mu.
func (c *Cache) memLookup(key string, want sched.Want) (*sched.Result, bool) {
	m, ok := c.mem.Get(key)
	if !ok {
		return nil, false
	}
	if want == sched.WantRaw {
		raw, ok := c.mem.GetRaw(key)
		if !ok {
			return nil, false
		}
		return sched.NewResult(m, raw), true
	}
	return sched.NewResult(m, nil), true
}

// GetOrCompute returns the result under key, computing it at most once
// across concurrent callers: the first caller (the leader) consults
// the disk tier and then runs compute, everyone else either hits the
// memory tier or waits on the leader's flight. The returned Tier
// reports what served the result; TierCompute means this caller ran
// the scheduler itself.
//
// A request with want == sched.WantRaw is served from a tier only when
// the raw attachment is actually resident (the disk tier never is —
// raw graphs are not persisted), so callers needing the raw result may
// recompute a cell whose metrics are long cached. The compute callback
// is responsible for requesting the attachment it needs.
//
// A leader's error is not shared: it may be private to that caller
// (its per-job timeout), so waiters retry — one becomes the next
// leader — rather than inherit the failure. Errors are never stored in
// any tier. A waiter whose own ctx expires stops waiting and returns
// ctx.Err(); the leader's computation is unaffected.
func (c *Cache) GetOrCompute(ctx context.Context, key string, want sched.Want, compute func() (*sched.Result, error)) (res *sched.Result, tier Tier, err error) {
	for {
		c.mu.Lock()
		if res, ok := c.memLookup(key, want); ok {
			c.mu.Unlock()
			c.memHits.Add(1)
			return res, TierMemory, nil
		}
		f, inflight := c.flights[key]
		if !inflight {
			f = &flight{done: make(chan struct{})}
			c.flights[key] = f
			c.mu.Unlock()
			var tier Tier
			f.res, tier, f.err = c.fill(key, want, compute)
			// Retire the flight only after fill published the result to
			// the memory tier, so a caller arriving between the two
			// always finds one of them.
			c.mu.Lock()
			delete(c.flights, key)
			c.mu.Unlock()
			close(f.done)
			return f.res, tier, f.err
		}
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil && (want != sched.WantRaw || f.res.Raw() != nil) {
				c.memHits.Add(1)
				return f.res, TierFlight, nil
			}
			// Leader failed, or its result lacks the raw attachment this
			// caller needs; loop and recompute (or join a newer flight).
		case <-ctx.Done():
			return nil, TierCompute, ctx.Err()
		}
	}
}

// fill is the leader's path past the memory tier: disk, then compute,
// writing through to every tier on the way back.
func (c *Cache) fill(key string, want sched.Want, compute func() (*sched.Result, error)) (*sched.Result, Tier, error) {
	disk := c.diskTier()
	// The disk tier holds metrics only, so it cannot serve WantRaw.
	if want != sched.WantRaw && disk != nil {
		if m, ok := disk.Get(key); ok {
			c.diskHits.Add(1)
			c.mem.Put(key, m) // promote, so reruns stay in memory
			return sched.NewResult(m, nil), TierDisk, nil
		}
	}
	c.misses.Add(1)
	res, err := safeCompute(key, compute)
	if err != nil {
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			c.quarantined.Add(1)
		}
		return nil, TierCompute, err
	}
	c.publish(key, res, disk)
	return res, TierCompute, nil
}

// safeCompute runs the compute callback inside a panic-recovery
// perimeter of its own: whatever the caller passed, a panicking compute
// becomes a typed *sched.PanicError on the normal error path, so the
// leader's flight always retires (waiters see the failure and retry)
// instead of deadlocking everyone parked on its done channel. The batch
// engine recovers at its own layer too and hands the PanicError down —
// this perimeter is for everyone else who calls GetOrCompute directly.
func safeCompute(key string, compute func() (*sched.Result, error)) (res *sched.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &sched.PanicError{Key: key, Value: v, Stack: debug.Stack()}
		}
	}()
	return compute()
}

// Len returns the number of metrics entries in the memory tier.
func (c *Cache) Len() int { return c.mem.Len() }

// RawLen returns the number of raw attachments resident in the capped
// raw tier.
func (c *Cache) RawLen() int { return c.mem.RawLen() }

// CacheStats summarizes the cache's traffic by serving tier. Flight
// shares (waiters that received another caller's in-flight result)
// count as memory hits; each actual computation counts as one miss.
type CacheStats struct {
	MemoryHits uint64
	DiskHits   uint64
	Misses     uint64
	// Quarantined counts computations this cache led that ended in a
	// recovered backend panic (*sched.PanicError) — poisoned cells that
	// failed alone instead of taking the process down.
	Quarantined uint64
	// Disk carries the persistent tier's own counters (errors
	// included) and footprint; zero when no disk tier is attached.
	Disk store.Stats
}

// Stats returns the hit and miss counts since creation, plus the disk
// tier's counters and footprint when one is attached.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		MemoryHits:  c.memHits.Load(),
		DiskHits:    c.diskHits.Load(),
		Misses:      c.misses.Load(),
		Quarantined: c.quarantined.Load(),
	}
	if disk := c.diskTier(); disk != nil {
		st.Disk = disk.Stats()
	}
	return st
}
