package batch_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sched/batch"
	"repro/internal/sched/store"
	"repro/internal/testutil"
)

func tinyLoop(name string) *ir.LoopSpec {
	return &ir.LoopSpec{
		Name: name,
		Body: []ir.BodyOp{
			ir.BLoad("t", ir.Aff("A", 1, 0)),
			ir.BStore(ir.Aff("B", 1, 0), "t"),
		},
		Step: 1, TripVar: "n",
	}
}

// stubScheduler counts calls and optionally blocks until released; like
// every well-behaved backend it observes its context while blocked.
type stubScheduler struct {
	name      string
	calls     atomic.Int64
	cancelled atomic.Int64  // completions due to ctx, not the gate
	gate      chan struct{} // nil = return immediately
	// arrived, when set, sees the call count after each call starts.
	arrived func(calls int64)
}

func (s *stubScheduler) Name() string { return s.name }

func (s *stubScheduler) Schedule(ctx context.Context, req sched.Request) (*sched.Result, error) {
	calls := s.calls.Add(1)
	if s.arrived != nil {
		s.arrived(calls)
	}
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			s.cancelled.Add(1)
			return nil, ctx.Err()
		}
	}
	return sched.NewResult(sched.Metrics{Technique: s.name, Loop: req.Spec.Name, Speedup: 1, Converged: true}, nil), nil
}

var registerOnce sync.Once
var countStub = &stubScheduler{name: "test-count"}
var blockStub = &stubScheduler{name: "test-block", gate: make(chan struct{})}
var dupStub = &stubScheduler{name: "test-duplicate"}

func stubs() {
	registerOnce.Do(func() {
		sched.Register(countStub)
		sched.Register(blockStub)
		sched.Register(dupStub)
	})
}

func TestRunOrderAndResults(t *testing.T) {
	var jobs []batch.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, batch.Job{
			Technique: "list", Spec: tinyLoop(fmt.Sprintf("l%d", i)), Machine: machine.New(2),
		})
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(jobs) {
		t.Fatalf("got %d outcomes for %d jobs", len(outs), len(jobs))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Job.Spec.Name != fmt.Sprintf("l%d", i) {
			t.Errorf("outcome %d belongs to job %s: order not preserved", i, o.Job.Spec.Name)
		}
		if o.Result == nil || o.Result.Speedup <= 0 {
			t.Errorf("job %d: bad result %+v", i, o.Result)
		}
	}
}

func TestUnknownTechniqueFailsJobOnly(t *testing.T) {
	jobs := []batch.Job{
		{Technique: "no-such", Spec: tinyLoop("a"), Machine: machine.New(2)},
		{Technique: "list", Spec: tinyLoop("b"), Machine: machine.New(2)},
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil {
		t.Error("unknown technique did not fail")
	}
	if outs[1].Err != nil {
		t.Errorf("healthy job failed: %v", outs[1].Err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	stubs()
	countStub.calls.Store(0)
	cache := batch.NewCache(8)
	job := batch.Job{Technique: "test-count", Spec: tinyLoop("cached"), Machine: machine.New(2)}

	outs, err := batch.Run(context.Background(), []batch.Job{job}, batch.Options{Cache: cache})
	if err != nil || outs[0].Err != nil {
		t.Fatalf("first run: %v %v", err, outs[0].Err)
	}
	if outs[0].Tier != batch.TierCompute {
		t.Errorf("first run served from %v, want compute", outs[0].Tier)
	}
	all := outs
	outs, err = batch.Run(context.Background(), []batch.Job{job, job}, batch.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Tier != batch.TierMemory {
			t.Errorf("rerun job %d served from %v, want memory", i, o.Tier)
		}
	}
	if got := countStub.calls.Load(); got != 1 {
		t.Errorf("scheduler ran %d times; cache should have held it to 1", got)
	}
	if st := batch.Summarize(append(all, outs...)); st.MemoryHits != 2 || st.Computed != 1 {
		t.Errorf("summary memory hits=%d computed=%d, want 2/1", st.MemoryHits, st.Computed)
	}

	// A different machine is a different key.
	other := job
	other.Machine = machine.New(4)
	outs, _ = batch.Run(context.Background(), []batch.Job{other}, batch.Options{Cache: cache})
	if outs[0].Tier != batch.TierCompute {
		t.Errorf("different machine served from %v, want compute", outs[0].Tier)
	}
	if got := countStub.calls.Load(); got != 2 {
		t.Errorf("scheduler ran %d times, want 2", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	stubs()
	c := batch.NewCache(2)
	job := func(name string) batch.Job {
		return batch.Job{Technique: "test-count", Spec: tinyLoop(name), Machine: machine.New(2)}
	}
	tier := func(name string) batch.Tier {
		t.Helper()
		outs, err := batch.Run(context.Background(), []batch.Job{job(name)}, batch.Options{Cache: c})
		if err != nil || outs[0].Err != nil {
			t.Fatalf("%s: %v %v", name, err, outs[0].Err)
		}
		return outs[0].Tier
	}
	tier("a")
	tier("b")
	if got := tier("a"); got != batch.TierMemory { // refresh a
		t.Fatalf("a served from %v, want memory", got)
	}
	tier("c") // evicts b
	if got := tier("a"); got != batch.TierMemory {
		t.Errorf("a served from %v despite recent use, want memory", got)
	}
	if got := tier("b"); got != batch.TierCompute { // evicts c
		t.Errorf("b served from %v after eviction, want compute", got)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestKeyDiscriminates(t *testing.T) {
	a := batch.Job{Technique: "list", Spec: tinyLoop("cfg"), Machine: machine.New(2)}
	b := a
	b.Machine = machine.New(4)
	c := a
	c.Technique = "grip"
	d := a
	d.Spec = tinyLoop("other")
	if a.Key() == b.Key() || a.Key() == c.Key() || a.Key() == d.Key() {
		t.Error("machine, technique, or spec did not change the cache key")
	}
	if !strings.HasPrefix(a.Key(), fmt.Sprintf("alg%d|", sched.AlgorithmVersion)) {
		t.Errorf("key %q does not carry the algorithm version", a.Key())
	}
	e := a
	e.Label = "display-only"
	if a.Key() != e.Key() {
		t.Error("Label leaked into the cache key")
	}
	f := a
	f.Config = sched.Config{Unwind: 8}
	g := a
	g.Config = sched.Config{Unwind: 16}
	if a.Key() == f.Key() || f.Key() == g.Key() {
		t.Error("config (unwind factor) did not change the cache key")
	}
	h := a
	h.Config = sched.Config{MaxUnwind: 96, Periods: 3} // the explicit defaults
	if a.Key() != h.Key() {
		t.Error("explicitly defaulted config keyed differently from the zero config")
	}
}

// TestConfigCachesIndependently runs the same (technique, loop,
// machine) cell under two unwind factors through one cache: the two
// configurations must occupy distinct entries (both first runs miss),
// and each must hit its own entry on rerun with bit-identical results.
func TestConfigCachesIndependently(t *testing.T) {
	cache := batch.NewCache(8)
	spec := tinyLoop("sweep")
	jobs := []batch.Job{
		{Technique: "grip", Spec: spec, Machine: machine.New(2), Config: sched.Config{Unwind: 8}},
		{Technique: "grip", Spec: spec, Machine: machine.New(2), Config: sched.Config{Unwind: 16}},
	}
	first, err := batch.Run(context.Background(), jobs, batch.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range first {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Tier != batch.TierCompute {
			t.Errorf("job %d: first run served from %v; configs are not distinct entries", i, o.Tier)
		}
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries for 2 configs, want 2", cache.Len())
	}
	second, err := batch.Run(context.Background(), jobs, batch.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range second {
		if o.Tier != batch.TierMemory {
			t.Errorf("job %d: rerun with identical config served from %v, want memory", i, o.Tier)
		}
		// Metrics move through the cache by value, so reruns compare by
		// content, not pointer identity — no caller aliases another's
		// result record.
		if o.Result.Metrics != first[i].Result.Metrics {
			t.Errorf("job %d: rerun metrics differ: %+v != %+v", i, o.Result.Metrics, first[i].Result.Metrics)
		}
	}
}

func TestCancellationMidBatch(t *testing.T) {
	testutil.LeakCheck(t)
	stubs()
	ctx, cancel := context.WithCancel(context.Background())
	var jobs []batch.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, batch.Job{
			Technique: "test-block", Spec: tinyLoop(fmt.Sprintf("c%d", i)), Machine: machine.New(2),
		})
	}
	done := make(chan struct{})
	var outs []batch.Outcome
	var runErr error
	go func() {
		outs, runErr = batch.Run(ctx, jobs, batch.Options{Parallelism: 2})
		close(done)
	}()
	// Workers are parked inside the blocked stub; cancel must unwedge
	// the whole batch without releasing the stub.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch did not return after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Errorf("run error = %v, want context.Canceled", runErr)
	}
	cancelled := 0
	for _, o := range outs {
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no job reported cancellation")
	}
}

func TestPerJobTimeout(t *testing.T) {
	stubs()
	before := blockStub.cancelled.Load()
	jobs := []batch.Job{
		{Technique: "test-block", Spec: tinyLoop("slow"), Machine: machine.New(2)},
		{Technique: "list", Spec: tinyLoop("fast"), Machine: machine.New(2)},
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 2, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[0].Err, context.DeadlineExceeded) {
		t.Errorf("slow job error = %v, want DeadlineExceeded", outs[0].Err)
	}
	if outs[1].Err != nil {
		t.Errorf("fast job failed: %v", outs[1].Err)
	}
	// The timeout didn't just release the caller — the scheduler itself
	// observed the context and stopped.
	if got := blockStub.cancelled.Load(); got != before+1 {
		t.Errorf("scheduler cancellations = %d, want %d: the timed-out computation kept running", got, before+1)
	}
}

// TestTimeoutStopsRealScheduler is the acceptance test for cooperative
// cancellation through the whole stack: a real GRiP job on a large
// fixed unwinding with a tiny timeout must fail with DeadlineExceeded
// AND leave no scheduler goroutine behind — the engine runs backends on
// its worker goroutines and the step loops observe the context, so when
// Run returns, nothing is still burning CPU on the abandoned schedule.
func TestTimeoutStopsRealScheduler(t *testing.T) {
	spec := &ir.LoopSpec{
		Name: "wide",
		Body: []ir.BodyOp{
			ir.BLoad("a", ir.Aff("A", 1, 0)),
			ir.BLoad("b", ir.Aff("B", 1, 0)),
			ir.BMul("c", "a", "b"),
			ir.BMul("d", "a", "c"),
			ir.BAdd("e", "c", "d"),
			ir.BMul("f", "e", "b"),
			ir.BAdd("g", "f", "a"),
			ir.BStore(ir.Aff("X", 1, 0), "g"),
		},
		Step: 1, TripVar: "n",
	}
	testutil.LeakCheck(t)
	jobs := []batch.Job{{
		Technique: "grip", Spec: spec, Machine: machine.New(2),
		Config: sched.Config{Unwind: 96},
	}}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", outs[0].Err)
	}
	if outs[0].Result != nil {
		t.Error("timed-out job returned a result")
	}
}

// TestDuplicateJobsEachCompute submits one job four times at
// Parallelism 4. The cache does not coordinate concurrent misses, so
// all four compute — the stub holds each until all have arrived, which
// would hang a cache that made duplicates wait — and each returns the
// same metrics. A rerun is then served from memory. Wall is nonzero
// exactly for the outcomes that computed.
func TestDuplicateJobsEachCompute(t *testing.T) {
	testutil.LeakCheck(t)
	stubs()
	const n = 4
	dup := dupStub
	dup.calls.Store(0)
	dup.gate = make(chan struct{})
	dup.arrived = func(calls int64) {
		if calls == n {
			close(dup.gate)
		}
	}
	cache := batch.NewCache(8)
	job := batch.Job{Technique: "test-duplicate", Spec: tinyLoop("dup"), Machine: machine.New(2)}
	jobs := []batch.Job{job, job, job, job}
	opts := batch.Options{Parallelism: n, Timeout: 10 * time.Second, Cache: cache}
	first, err := batch.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range first {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Tier != batch.TierCompute {
			t.Errorf("job %d served from %v, want compute", i, o.Tier)
		}
		if o.Result.Metrics != first[0].Result.Metrics {
			t.Errorf("job %d metrics %+v differ from job 0's %+v", i, o.Result.Metrics, first[0].Result.Metrics)
		}
	}
	if got := dup.calls.Load(); got != n {
		t.Errorf("scheduler ran %d times, want %d", got, n)
	}
	second, err := batch.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range append(first, second...) {
		if o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
		}
		if (o.Wall != 0) != (o.Tier == batch.TierCompute) {
			t.Errorf("outcome %d: tier %v with wall %v", i, o.Tier, o.Wall)
		}
	}
	if st := batch.Summarize(second); st.MemoryHits != n {
		t.Errorf("rerun summary %+v, want %d memory hits", st, n)
	}
}

// TestParallelBitIdentical runs a real Table-1-style matrix across all
// four techniques sequentially and with four workers and requires
// identical results — the scheduling backends are pure functions, so
// execution order must not leak into the cells. Run with -race in CI,
// this also exercises the engine and the POST phase-1 memo for data
// races.
func TestParallelBitIdentical(t *testing.T) {
	loop := &ir.LoopSpec{
		Name: "hydro",
		Body: []ir.BodyOp{
			ir.BLoad("z10", ir.Aff("Z", 1, 10)),
			ir.BLoad("z11", ir.Aff("Z", 1, 11)),
			ir.BMul("a", "r", "z10"),
			ir.BMul("b", "t", "z11"),
			ir.BAdd("c", "a", "b"),
			ir.BLoad("y", ir.Aff("Y", 1, 0)),
			ir.BMul("d", "y", "c"),
			ir.BAdd("e", "q", "d"),
			ir.BStore(ir.Aff("X", 1, 0), "e"),
		},
		Step: 1, TripVar: "n", LiveIn: []string{"q", "r", "t"},
	}
	var jobs []batch.Job
	for _, f := range []int{2, 4} {
		for _, tech := range []string{"grip", "post", "modulo", "list"} {
			jobs = append(jobs, batch.Job{Technique: tech, Spec: loop, Machine: machine.New(f)})
		}
	}
	seq, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		s, p := seq[i], par[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("job %d: seq err %v, par err %v", i, s.Err, p.Err)
		}
		if s.Result.Speedup != p.Result.Speedup ||
			s.Result.CyclesPerIter != p.Result.CyclesPerIter ||
			s.Result.Converged != p.Result.Converged ||
			s.Result.Rows != p.Result.Rows {
			t.Errorf("%s @%dFU: parallel diverged: seq %+v par %+v",
				jobs[i].Technique, jobs[i].Machine.OpSlots, s.Result, p.Result)
		}
	}
}

// TestDiskTierServesSecondCache simulates the cross-process warm run:
// a fresh cache sharing the first cache's disk directory must serve
// every cell from the disk tier without calling the scheduler, with
// metrics bit-identical, and promote entries into its memory tier so
// a further rerun is a memory hit.
func TestDiskTierServesSecondCache(t *testing.T) {
	stubs()
	dir := t.TempDir()
	disk1, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := batch.NewTieredCache(64, 0, disk1)
	countStub.calls.Store(0)
	var jobs []batch.Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, batch.Job{Technique: "test-count", Spec: tinyLoop(fmt.Sprintf("d%d", i)), Machine: machine.New(2)})
	}
	first, err := batch.Run(context.Background(), jobs, batch.Options{Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range first {
		if o.Err != nil || o.Tier != batch.TierCompute {
			t.Fatalf("cold job %d: err=%v tier=%v", i, o.Err, o.Tier)
		}
	}

	disk2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := batch.NewTieredCache(64, 0, disk2)
	second, err := batch.Run(context.Background(), jobs, batch.Options{Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range second {
		if o.Err != nil {
			t.Fatalf("warm job %d: %v", i, o.Err)
		}
		if o.Tier != batch.TierDisk {
			t.Errorf("warm job %d served by %v, want disk", i, o.Tier)
		}
		if o.Result.Metrics != first[i].Result.Metrics {
			t.Errorf("warm job %d metrics drifted: %+v != %+v", i, o.Result.Metrics, first[i].Result.Metrics)
		}
	}
	if got := countStub.calls.Load(); got != 4 {
		t.Errorf("scheduler ran %d times; warm run must not compute", got)
	}
	third, err := batch.Run(context.Background(), jobs, batch.Options{Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range third {
		if o.Tier != batch.TierMemory {
			t.Errorf("rerun job %d served by %v, want memory (disk hit not promoted)", i, o.Tier)
		}
	}
	if st := batch.Summarize(append(second, third...)); st.DiskHits != 4 || st.MemoryHits != 4 || st.Computed != 0 {
		t.Errorf("warm summary %+v, want 4 disk / 4 memory / 0 computed", st)
	}
	if st := disk2.Stats(); st.Entries != 4 || st.Bytes <= 0 {
		t.Errorf("disk footprint %+v, want 4 entries, >0 bytes", st)
	}
}

// TestCorruptDiskEntryRecomputesWithoutPoisoning corrupts one on-disk
// entry: the lookup must fall through to compute, serve correct
// metrics, and leave both tiers healthy — the memory tier never learns
// the corrupt value, and the disk slot is rewritten.
func TestCorruptDiskEntryRecomputesWithoutPoisoning(t *testing.T) {
	stubs()
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := batch.Job{Technique: "test-count", Spec: tinyLoop("corrupt"), Machine: machine.New(2)}
	cold := batch.NewTieredCache(64, 0, disk)
	first, err := batch.Run(context.Background(), []batch.Job{job}, batch.Options{Cache: cold})
	if err != nil || first[0].Err != nil {
		t.Fatalf("cold run: %v %v", err, first[0].Err)
	}

	// Smash every entry file.
	var smashed int
	filepath.Walk(dir, func(path string, info os.FileInfo, walkErr error) error {
		if walkErr == nil && !info.IsDir() && strings.HasSuffix(path, ".json") {
			if err := os.WriteFile(path, []byte("{torn write"), 0o644); err != nil {
				t.Fatal(err)
			}
			smashed++
		}
		return nil
	})
	if smashed == 0 {
		t.Fatal("no disk entry written by the cold run")
	}

	before := countStub.calls.Load()
	fresh := batch.NewTieredCache(64, 0, disk)
	warm, err := batch.Run(context.Background(), []batch.Job{job}, batch.Options{Cache: fresh})
	if err != nil || warm[0].Err != nil {
		t.Fatalf("recompute run: %v %v", err, warm[0].Err)
	}
	if warm[0].Tier != batch.TierCompute {
		t.Errorf("corrupt entry served from %v, want recompute", warm[0].Tier)
	}
	if warm[0].Result.Metrics != first[0].Result.Metrics {
		t.Errorf("recomputed metrics drifted: %+v != %+v", warm[0].Result.Metrics, first[0].Result.Metrics)
	}
	if got := countStub.calls.Load(); got != before+1 {
		t.Errorf("scheduler calls %d, want %d (exactly one recompute)", got, before+1)
	}
	// The rewrite healed the disk slot: a third cache now disk-hits.
	again, err := batch.Run(context.Background(), []batch.Job{job},
		batch.Options{Cache: batch.NewTieredCache(64, 0, disk)})
	if err != nil || again[0].Err != nil {
		t.Fatal(err, again[0].Err)
	}
	if again[0].Tier != batch.TierDisk {
		t.Errorf("healed entry served from %v, want disk", again[0].Tier)
	}
	// The memory tier of the recomputing cache holds the good value.
	mem, err := batch.Run(context.Background(), []batch.Job{job}, batch.Options{Cache: fresh})
	if err != nil || mem[0].Err != nil {
		t.Fatal(err, mem[0].Err)
	}
	if mem[0].Tier != batch.TierMemory || mem[0].Result.Metrics != first[0].Result.Metrics {
		t.Errorf("memory tier poisoned or empty after corrupt-entry recompute: %v %+v", mem[0].Tier, mem[0].Result.Metrics)
	}
	if disk.Stats().Rejected == 0 {
		t.Error("corrupt entry not counted as rejected")
	}
}

// TestWantRawServedOnlyWithAttachment pins the raw-tier contract: a
// metrics-only cache entry (memory or disk) cannot satisfy a WantRaw
// job — the cell recomputes, attaches, and only then do raw requests
// hit; and the raw tier stays within its cap while the metrics tier
// retains every fingerprint.
func TestWantRawServedOnlyWithAttachment(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := batch.NewTieredCache(64, 2, disk)
	mk := func(name string, want sched.Want) batch.Job {
		return batch.Job{Technique: "grip", Spec: tinyLoop(name), Machine: machine.New(2), Want: want}
	}

	// Metrics-only first: cached in both tiers, no raw anywhere.
	outs, err := batch.Run(context.Background(), []batch.Job{mk("rawc", sched.WantMetrics)}, batch.Options{Cache: cache})
	if err != nil || outs[0].Err != nil {
		t.Fatal(err, outs[0].Err)
	}
	if outs[0].Result.Raw() != nil {
		t.Fatal("metrics-only job carries a raw attachment")
	}
	metricsOnly := outs[0].Result.Metrics

	// WantRaw on the same key: the metrics tiers must NOT serve it.
	outs, err = batch.Run(context.Background(), []batch.Job{mk("rawc", sched.WantRaw)}, batch.Options{Cache: cache})
	if err != nil || outs[0].Err != nil {
		t.Fatal(err, outs[0].Err)
	}
	if outs[0].Tier != batch.TierCompute {
		t.Errorf("WantRaw served from %v despite no resident attachment", outs[0].Tier)
	}
	if outs[0].Result.Raw() == nil {
		t.Fatal("WantRaw compute returned no attachment")
	}
	if outs[0].Result.Metrics != metricsOnly {
		t.Errorf("Want changed the metrics: %+v != %+v", outs[0].Result.Metrics, metricsOnly)
	}

	// Now resident: a second WantRaw is a memory hit with the SHARED
	// attachment (the documented aliasing contract).
	shared := outs[0].Result.Raw()
	outs, err = batch.Run(context.Background(), []batch.Job{mk("rawc", sched.WantRaw)}, batch.Options{Cache: cache})
	if err != nil || outs[0].Err != nil {
		t.Fatal(err, outs[0].Err)
	}
	if outs[0].Tier != batch.TierMemory {
		t.Errorf("resident raw served from %v, want memory", outs[0].Tier)
	}
	if outs[0].Result.Raw() != shared {
		t.Error("raw tier handed out a different attachment than it stored")
	}

	// Fill past the raw cap: metrics retained for all, raws for <= cap.
	var jobs []batch.Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, mk(fmt.Sprintf("rawfill%d", i), sched.WantRaw))
	}
	if _, err := batch.Run(context.Background(), jobs, batch.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if got := cache.RawLen(); got > 2 {
		t.Errorf("raw tier holds %d attachments, cap is 2", got)
	}
	if got := cache.Len(); got != 5 {
		t.Errorf("metrics tier holds %d entries, want all 5", got)
	}
}

// TestMemoryTiers: the raw tier is capped independently of the metrics
// tier, and evicting an attachment never drops its metrics.
func TestMemoryTiers(t *testing.T) {
	cache := batch.NewTieredCache(128, 2, nil)
	mk := func(name string, want sched.Want) batch.Job {
		return batch.Job{Technique: "grip", Spec: tinyLoop(name), Machine: machine.New(2), Want: want}
	}
	tier := func(j batch.Job) batch.Tier {
		t.Helper()
		outs, err := batch.Run(context.Background(), []batch.Job{j}, batch.Options{Cache: cache})
		if err != nil || outs[0].Err != nil {
			t.Fatalf("%s: %v %v", j.Spec.Name, err, outs[0].Err)
		}
		return outs[0].Tier
	}
	for i := 0; i < 5; i++ {
		tier(mk(fmt.Sprintf("r%d", i), sched.WantRaw))
	}
	if cache.Len() != 5 {
		t.Errorf("metrics tier holds %d entries, want all 5", cache.Len())
	}
	if cache.RawLen() != 2 {
		t.Errorf("raw tier holds %d entries, want the cap (2)", cache.RawLen())
	}
	if got := tier(mk("r0", sched.WantMetrics)); got != batch.TierMemory {
		t.Errorf("r0 metrics served from %v: the metrics tier lost an entry because the raw tier evicted", got)
	}
	if got := tier(mk("r4", sched.WantRaw)); got != batch.TierMemory {
		t.Errorf("r4 raw served from %v: the raw tier lost its most recent entry", got)
	}
	if got := tier(mk("r0", sched.WantRaw)); got != batch.TierCompute {
		t.Errorf("r0 raw served from %v: the raw tier retained an entry beyond its cap", got)
	}
}

func TestBenchReport(t *testing.T) {
	jobs := []batch.Job{
		{Technique: "list", Spec: tinyLoop("r0"), Machine: machine.New(2), Label: "LL0"},
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := batch.NewBenchReport(outs, 3, 10*time.Millisecond)
	if rep.Parallelism != 3 || len(rep.Cells) != 1 {
		t.Fatalf("bad report %+v", rep)
	}
	c := rep.Cells[0]
	if c.Loop != "LL0" || c.FUs != 2 || c.Technique != "list" || c.Speedup <= 0 {
		t.Errorf("bad cell %+v", c)
	}
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"loop": "LL0"`) {
		t.Errorf("JSON missing loop name: %s", sb.String())
	}
}
