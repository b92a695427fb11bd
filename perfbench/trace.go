package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/metrics"
	"runtime/trace"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the exported function it calls. Times are nanoseconds since
// the tracer was created; Parent is the index of the enclosing span, -1 at
// the top; Job is the index of the job the call belongs to, -1 for
// set-up work shared by no job.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes allocated between Start and End, read from
	// runtime/metrics (span-granular: the runtime counts a small-object
	// span when a P takes it, so tiny calls may read 0 or 8 KiB).
	Alloc uint64 `json:"alloc_bytes"`

	region *trace.Region
	alloc0 uint64
}

// tracer holds the spans and deterministic work counters of one traced
// pass in memory. A nil *tracer is the untraced run: every method returns
// at once, so the timed code path is shared by both runs.
//
// The tracer is not safe for concurrent use. It needs none: a pass runs
// its jobs with batch Parallelism 1, and the goroutines it spans hand off
// through batch.Run's channel and WaitGroup, so no two calls overlap.
type tracer struct {
	ctx   context.Context
	t0    time.Time
	spans []span
	stack []int
	job   int
	// nextJob is the id the next job-starting call takes (a replica's
	// Schedule, a disk-tier Get); the pass sets it before each batch.
	nextJob int

	counters map[string]int64
	// ladderCoreNs and ladderWastedNs sum core.Schedule time over unwind
	// ladder runs, and over the runs a ladder discarded.
	ladderCoreNs, ladderWastedNs int64

	sample []metrics.Sample
}

const heapAllocsMetric = "/gc/heap/allocs:bytes"

func newTracer(ctx context.Context) *tracer {
	return &tracer{
		ctx:      ctx,
		t0:       time.Now(),
		job:      -1,
		counters: map[string]int64{},
		sample:   []metrics.Sample{{Name: heapAllocsMetric}},
	}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span named layer.call and the matching runtime/trace
// region, and returns the span's index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		Name:   name,
		Job:    t.job,
		Parent: parent,
		region: trace.StartRegion(t.ctx, name),
		alloc0: t.heapAllocs(),
		Start:  time.Since(t.t0).Nanoseconds(),
	})
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Alloc = t.heapAllocs() - s.alloc0
	s.region.End()
	s.region = nil
	t.stack = t.stack[:len(t.stack)-1]
}

// startJob gives the calls that follow the next job id.
func (t *tracer) startJob() {
	if t == nil {
		return
	}
	t.job = t.nextJob
	t.nextJob++
}

// setJob attributes the calls that follow to job j (-1: no job).
func (t *tracer) setJob(j int) {
	if t != nil {
		t.job = j
	}
}

func (t *tracer) count(name string, n int) {
	if t != nil {
		t.counters[name] += int64(n)
	}
}

func (t *tracer) dur(i int) int64 { return t.spans[i].End - t.spans[i].Start }

// layerOf maps a span name "layer.call" to its layer.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanStats sums what the spans of one tracer say per name and per layer.
type spanStats struct {
	// total is the inclusive time per span name, calls the span count.
	total map[string]int64
	calls map[string]int64
	// selfAlloc is per layer: a span's allocated bytes minus those of its
	// direct children.
	selfAlloc map[string]int64
	// rootNs is the summed duration of top-level spans: all layer time,
	// the sum of every span's self time (its time minus its children's).
	rootNs int64
	// durs keeps every duration per span name, for percentiles.
	durs map[string][]int64
}

func (t *tracer) stats() spanStats {
	st := spanStats{
		total: map[string]int64{}, calls: map[string]int64{},
		selfAlloc: map[string]int64{}, durs: map[string][]int64{},
	}
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childAlloc[s.Parent] += s.Alloc
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		st.total[s.Name] += d
		st.calls[s.Name]++
		st.durs[s.Name] = append(st.durs[s.Name], d)
		if s.Alloc > childAlloc[i] {
			st.selfAlloc[layerOf(s.Name)] += int64(s.Alloc - childAlloc[i])
		}
		if s.Parent < 0 {
			st.rootNs += d
		}
	}
	return st
}

// p50 returns the median of ds, 0 for none.
func p50(ds []int64) int64 {
	if len(ds) == 0 {
		return 0
	}
	c := append([]int64(nil), ds...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[len(c)/2]
}

// writeSpans writes the spans of both tracers as JSON to path.
func writeSpans(path string, setup, pass *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string][]span{"setup": setup.spans, "pass": pass.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
