package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/deps"
	"repro/internal/fuzzgen"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/sched/batch"
	"repro/internal/sched/store"
)

// Workload names. Why each exists is in README.md.
const (
	table1Grip = "table1-grip"
	table1Post = "table1-post"
	fuzzSweep  = "fuzz-sweep"
	table1Warm = "table1-warm"
)

var workloadNames = []string{table1Grip, table1Post, fuzzSweep, table1Warm}

// allWorkloads names the four workloads run in turn.
const allWorkloads = "all"

// table1FUs are Table 1's machine widths.
var table1FUs = []int{2, 4, 8}

// expectFile holds the Table 1 cells every table workload must reproduce.
const expectFile = "BENCH_table1.json"

// warmCacheCap is the memory tier's capacity in the warm workload, the
// size the harness gives its shared cache.
const warmCacheCap = 8192

// cell names one Table 1 cell.
type cell struct {
	Loop      string
	FUs       int
	Technique string
}

type expected struct {
	Speedup   float64
	Converged bool
}

// loadExpected reads the Table 1 contract from BENCH_table1.json.
func loadExpected() (map[cell]expected, error) {
	data, err := os.ReadFile(expectFile)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Cells []struct {
			Loop      string  `json:"loop"`
			FUs       int     `json:"fus"`
			Technique string  `json:"technique"`
			Speedup   float64 `json:"speedup"`
			Converged bool    `json:"converged"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", expectFile, err)
	}
	out := map[cell]expected{}
	for _, c := range doc.Cells {
		out[cell{c.Loop, c.FUs, c.Technique}] = expected{c.Speedup, c.Converged}
	}
	if len(out) != len(livermore.All())*len(table1FUs)*len(harness.Table1Techniques) {
		return nil, fmt.Errorf("%s: %d cells, want the full Table 1", expectFile, len(out))
	}
	return out, nil
}

// input is what one child process builds before its first timed job: the
// workload's jobs in submission order, and what their checks need.
type input struct {
	workload string
	jobs     []batch.Job
	// groups are the [lo, hi) job ranges submitted as one batch: the whole
	// table, or one fuzz loop's technique × width matrix.
	groups [][2]int
	// timeout is batch.Options.Timeout: none for the table, the fuzz
	// harness's default for fuzz loops.
	timeout time.Duration
	expect  map[cell]expected
	// fresh holds, for the warm workload, the metrics set-up computed,
	// by job key.
	fresh map[string]sched.Metrics
	// warmDir is the warm workload's disk tier.
	warmDir string
}

// tableJobs lists Table 1's cells for the techniques.
func tableJobs(techniques ...string) []batch.Job {
	var jobs []batch.Job
	for _, k := range livermore.All() {
		for _, fus := range table1FUs {
			for _, tech := range techniques {
				jobs = append(jobs, batch.Job{Technique: tech, Spec: k.Spec, Machine: machine.New(fus), Label: k.Name})
			}
		}
	}
	return jobs
}

// fuzzJobs lists the technique × width matrix of the fuzz loops, as
// harness.CheckLoop does, but with CrossCheck off: it is a test mode, not
// the scheduler users run. Loops come in seeded order, each loop's jobs
// contiguous.
func fuzzJobs(specs []*ir.LoopSpec) ([]batch.Job, [][2]int) {
	cfg := sched.Config{MaxUnwind: harness.FuzzMaxUnwind}
	var jobs []batch.Job
	var groups [][2]int
	for _, spec := range specs {
		lo := len(jobs)
		for _, fus := range table1FUs {
			for _, tech := range []string{"grip", "list", "modulo", "post"} {
				jobs = append(jobs, batch.Job{
					Technique: tech, Spec: spec, Machine: machine.New(fus),
					Config: cfg, Want: sched.WantRaw,
				})
			}
		}
		groups = append(groups, [2]int{lo, len(jobs)})
	}
	return jobs, groups
}

// buildInput makes the workload's inputs from the seed: the job order of
// the table workloads and the loop order of fuzz-sweep. The fuzz loops
// themselves come from fuzzBase, not the seed, so every run of one
// benchmark definition measures the same loops.
func buildInput(o options, setup *tracer) (*input, error) {
	in := &input{workload: o.workload}
	rng := rand.New(rand.NewSource(o.seed))
	switch o.workload {
	case table1Grip, table1Post, table1Warm:
		switch o.workload {
		case table1Grip:
			in.jobs = tableJobs("grip")
		case table1Post:
			in.jobs = tableJobs("post")
		default:
			in.jobs = tableJobs(harness.Table1Techniques...)
		}
		rng.Shuffle(len(in.jobs), func(i, j int) { in.jobs[i], in.jobs[j] = in.jobs[j], in.jobs[i] })
		in.groups = [][2]int{{0, len(in.jobs)}}
		exp, err := loadExpected()
		if err != nil {
			return nil, err
		}
		in.expect = exp
	case fuzzSweep:
		specs := make([]*ir.LoopSpec, o.fuzzCount)
		sp := setup.begin("fuzzgen.spec")
		for i := range specs {
			specs[i] = fuzzgen.SweepSpec(o.fuzzBase + int64(i))
		}
		setup.end(sp)
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		in.jobs, in.groups = fuzzJobs(specs)
		in.timeout = harness.DefaultFuzzTimeout
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	return in, nil
}

// populate is the warm workload's set-up: compute every cell once and
// write it through a durable disk tier, the path of table1 -cache-dir.
func populate(ctx context.Context, in *input, dir string, setup *tracer) error {
	disk, err := store.OpenDiskOptions(dir, store.DiskOptions{Durable: true})
	if err != nil {
		return err
	}
	var st store.Store = disk
	if setup != nil {
		st = timedStore{t: setup, inner: disk}
	}
	outs, err := batch.Run(ctx, in.jobs, batch.Options{Parallelism: 1, Cache: batch.NewTieredCache(warmCacheCap, 0, st)})
	if err != nil {
		return err
	}
	in.fresh = map[string]sched.Metrics{}
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("set-up: %s: %w", jobName(o.Job), o.Err)
		}
		in.fresh[o.Job.Key()] = o.Result.Metrics
	}
	if ds := disk.Stats(); ds.WriteErrors > 0 || ds.Entries != len(in.jobs) {
		return fmt.Errorf("set-up: disk tier holds %d of %d entries (%d write errors)", ds.Entries, len(in.jobs), ds.WriteErrors)
	}
	in.warmDir = dir
	return nil
}

// jobReport is one job's answer and verdict in a pass.
type jobReport struct {
	Name    string        `json:"name"`
	Metrics sched.Metrics `json:"metrics"`
	Tier    string        `json:"tier"`
	WallNs  int64         `json:"wall_ns"`
	// Fail says why the job failed: error, timeout or a failed check;
	// empty when it passed.
	Fail string `json:"fail,omitempty"`
}

// passReport is one timed pass over the workload's job set.
type passReport struct {
	WallNs     int64       `json:"wall_ns"`
	AllocBytes uint64      `json:"alloc_bytes"`
	GCCycles   uint32      `json:"gc_cycles"`
	GCPauseNs  uint64      `json:"gc_pause_ns"`
	Jobs       []jobReport `json:"jobs"`
	// Layers and Counters are the traced pass's per-layer metrics and its
	// deterministic work counts.
	Layers   map[string]float64 `json:"layers,omitempty"`
	Counters map[string]int64   `json:"counters,omitempty"`
}

func jobName(j batch.Job) string {
	return fmt.Sprintf("%s@%d/%s", j.DisplayName(), j.Machine.OpSlots, j.Technique)
}

// runPass times one pass over the input's jobs and checks every answer.
// With t set, the jobs run through the traced replicas.
func runPass(ctx context.Context, in *input, t *tracer) (passReport, error) {
	jobs := in.jobs
	if t != nil && in.workload != table1Warm {
		jobs = make([]batch.Job, len(in.jobs))
		for i, j := range in.jobs {
			j.Technique = replicaPrefix + j.Technique
			jobs[i] = j
		}
	}
	rep := passReport{Jobs: make([]jobReport, len(jobs))}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	opts := batch.Options{Parallelism: 1, Timeout: in.timeout}
	var disk *store.Disk
	if in.workload == table1Warm {
		var err error
		if disk, err = store.OpenDiskOptions(in.warmDir, store.DiskOptions{Durable: true}); err != nil {
			return rep, err
		}
		var st store.Store = disk
		if t != nil {
			st = timedStore{t: t, inner: disk, jobs: true}
		}
		opts.Cache = batch.NewTieredCache(warmCacheCap, 0, st)
	}
	for _, g := range in.groups {
		if t != nil {
			t.nextJob = g[0]
		}
		outs, err := batch.Run(ctx, jobs[g[0]:g[1]], opts)
		if err != nil {
			return rep, err
		}
		for i, o := range outs {
			jr := &rep.Jobs[g[0]+i]
			jr.Name = jobName(in.jobs[g[0]+i])
			jr.Tier = o.Tier.String()
			jr.WallNs = o.Wall.Nanoseconds()
			if o.Err != nil {
				jr.Fail = o.Err.Error()
				continue
			}
			jr.Metrics = o.Result.Metrics
		}
		if in.workload == fuzzSweep {
			judgeFuzz(in, g, outs, rep.Jobs, t)
		}
	}
	rep.WallNs = time.Since(start).Nanoseconds()

	runtime.ReadMemStats(&m1)
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.GCCycles = m1.NumGC - m0.NumGC
	rep.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	if in.workload != fuzzSweep {
		checkTable(in, rep.Jobs)
	}
	if t != nil {
		rep.Layers, rep.Counters = layerMetrics(t, rep, disk)
	}
	return rep, nil
}

// checkTable holds every table job to BENCH_table1.json and, for the warm
// workload, to being served from disk with the metrics set-up computed.
func checkTable(in *input, reps []jobReport) {
	for i, j := range in.jobs {
		r := &reps[i]
		if r.Fail != "" {
			continue
		}
		want := in.expect[cell{j.DisplayName(), j.Machine.OpSlots, j.Technique}]
		if r.Metrics.Speedup != want.Speedup || r.Metrics.Converged != want.Converged {
			r.Fail = fmt.Sprintf("speedup %v converged %t, %s has %v %t",
				r.Metrics.Speedup, r.Metrics.Converged, expectFile, want.Speedup, want.Converged)
			continue
		}
		if in.workload != table1Warm {
			continue
		}
		if r.Tier != batch.TierDisk.String() {
			r.Fail = "served from " + r.Tier + ", not disk"
		} else if r.Metrics != in.fresh[j.Key()] {
			r.Fail = "disk metrics differ from the computed ones"
		}
	}
}

// boundEps absorbs float rounding in the rate-band comparisons.
const boundEps = 1e-9

// judgeFuzz is the fuzz oracle of harness.CheckLoop, inside the timed
// pass: grip and post results must run equivalently to the source loop in
// the simulator; modulo and list must land in the analytic band between
// the dependence rate bound and the sequential cost.
func judgeFuzz(in *input, g [2]int, outs []batch.Outcome, reps []jobReport, t *tracer) {
	spec := in.jobs[g[0]].Spec
	t.setJob(-1)
	sp := t.begin("fuzzgen.workload")
	vars, arrays := fuzzgen.Workload(spec)
	t.end(sp)
	sp = t.begin("deps.analyze")
	info := deps.Analyze(spec)
	t.end(sp)
	seq := float64(spec.SeqOpsPerIter())
	for i, o := range outs {
		r := &reps[g[0]+i]
		if r.Fail != "" {
			continue
		}
		t.setJob(g[0] + i)
		if o.Result.CyclesPerIter <= 0 || o.Result.Speedup <= 0 {
			r.Fail = fmt.Sprintf("non-positive rate: %v cycles/iter, speedup %v", o.Result.CyclesPerIter, o.Result.Speedup)
			continue
		}
		if raw, ok := o.Result.Raw().(*pipeline.Result); ok {
			sp := t.begin("pipeline.clone")
			res := raw.Clone()
			t.end(sp)
			sp = t.begin("sim.validate")
			err := validate(res, vars, arrays)
			t.end(sp)
			t.count("sim.validate_calls", 1)
			if err != nil {
				r.Fail = "semantics: " + err.Error()
			}
			continue
		}
		if b := info.RateBound(spec.SeqOpsPerIter()-1, o.Job.Machine.OpSlots); o.Result.CyclesPerIter+boundEps < b {
			r.Fail = fmt.Sprintf("%v cycles/iter below rate bound %v", o.Result.CyclesPerIter, b)
		} else if o.Result.CyclesPerIter > seq+boundEps {
			r.Fail = fmt.Sprintf("%v cycles/iter above sequential cost %v", o.Result.CyclesPerIter, seq)
		}
	}
	t.setJob(-1)
}

// validate runs the scheduled loop against its source for an early exit,
// a mid-unwind exit and the full unwound depth, the trips the fuzz
// harness checks.
func validate(res *pipeline.Result, vars map[string]int64, arrays map[string][]int64) error {
	u := int64(res.U)
	var trips []int64
	seen := map[int64]bool{}
	for _, iters := range []int64{1, u / 3, u} {
		if iters < 1 {
			iters = 1
		}
		trip := res.Spec.Start + res.Spec.Step*iters
		if !seen[trip] {
			seen[trip] = true
			trips = append(trips, trip)
		}
	}
	return pipeline.ValidateSemantics(res, vars, arrays, trips)
}

// errColdReuse is returned for a second cold pass in one process.
var errColdReuse = errors.New("a cold workload runs one timed pass per process: the POST phase-1 memo in the sched registry would be warm")

// coldPassDone guards the cold workloads: the sched registry's POST
// phase-1 memo lives for the whole process and has no reset, so a second
// pass of table1-post or fuzz-sweep in one process would time post.From
// alone. Every cold pass therefore runs in a fresh child process.
var coldPassDone bool

// runColdPass runs the one timed pass a cold child process may run.
func runColdPass(ctx context.Context, in *input, t *tracer) (passReport, error) {
	if coldPassDone {
		return passReport{}, errColdReuse
	}
	coldPassDone = true
	return runPass(ctx, in, t)
}

// layerMetrics turns a traced pass's spans and counters into the per-layer
// metrics. disk is the warm pass's disk tier, nil otherwise.
func layerMetrics(t *tracer, rep passReport, disk *store.Disk) (map[string]float64, map[string]int64) {
	st := t.stats()
	ms := func(name string) float64 { return float64(st.total[name]) / 1e6 }
	c := t.counters
	l := map[string]float64{}
	perMove := func(regime string) float64 {
		if n := c["core.moves_"+regime]; n > 0 {
			return float64(st.total["core.schedule_"+regime]) / 1e3 / float64(n)
		}
		return 0
	}
	for _, regime := range []string{"inf", "bounded"} {
		l["core.schedule_"+regime+"_ms"] = ms("core.schedule_" + regime)
		l["core.moves_"+regime] = float64(c["core.moves_"+regime])
		l["core.us_per_move_"+regime] = perMove(regime)
	}
	l["core.barriers"] = float64(c["core.barriers"])
	l["core.gapless_rejects"] = float64(c["core.gapless_rejects"])
	l["core.suspensions"] = float64(c["core.suspensions"])
	if n := c["core.arrived"] + c["core.partial"]; n > 0 {
		l["core.arrived_frac"] = float64(c["core.arrived"]) / float64(n)
	}
	l["pipeline.ladder_runs"] = float64(c["pipeline.ladder_runs"])
	if t.ladderCoreNs > 0 {
		l["pipeline.ladder_wasted_frac"] = float64(t.ladderWastedNs) / float64(t.ladderCoreNs)
	}
	for _, name := range []string{"pipeline.unwind", "pipeline.optimize", "pipeline.buildgraph", "pipeline.detect",
		"deps.build", "deps.analyze", "post.clone", "post.from", "modulo.schedule", "listsched.schedule",
		"sim.validate", "store.get"} {
		l[name+"_ms"] = ms(name)
	}
	l["pipeline.unwound_ops"] = float64(c["pipeline.unwound_ops"])
	l["pipeline.optimize_removed"] = float64(c["pipeline.optimize_removed"])
	l["deps.build_ops"] = float64(c["deps.build_ops"])
	l["post.rows_added"] = float64(c["post.rows_added"])
	l["sim.validate_calls"] = float64(c["sim.validate_calls"])
	l["store.get_calls"] = float64(st.calls["store.get"])
	l["store.get_p50_us"] = float64(p50(st.durs["store.get"])) / 1e3
	if disk != nil {
		l["store.rejected"] = float64(disk.Stats().Rejected)
	}
	var hits, misses int
	for _, j := range rep.Jobs {
		if j.Tier == batch.TierCompute.String() {
			misses++
		} else {
			hits++
		}
	}
	l["batch.cache_hits"] = float64(hits)
	l["batch.cache_misses"] = float64(misses)
	l["batch.overhead_ms"] = float64(rep.WallNs-st.rootNs) / 1e6
	for layer, b := range st.selfAlloc {
		l[layer+".alloc_mb"] = float64(b) / (1 << 20)
	}
	passAlloc := int64(rep.AllocBytes)
	for _, b := range st.selfAlloc {
		passAlloc -= b
	}
	l["batch.alloc_mb"] = float64(max(passAlloc, 0)) / (1 << 20)

	counters := map[string]int64{}
	for k, v := range c {
		counters[k] = v
	}
	for name, n := range st.calls {
		counters[name+"_calls"] = n
	}
	counters["batch.cache_hits"] = int64(hits)
	counters["batch.cache_misses"] = int64(misses)
	return l, counters
}

// setupLayers adds the set-up's spans to a traced child's per-layer
// metrics: fuzz spec generation and the warm workload's disk writes.
func setupLayers(setup *tracer, l map[string]float64) {
	st := setup.stats()
	l["fuzzgen.spec_ms"] = float64(st.total["fuzzgen.spec"]) / 1e6
	l["store.put_ms"] = float64(st.total["store.put"]) / 1e6
	l["store.put_p50_us"] = float64(p50(st.durs["store.put"])) / 1e3
	for layer, b := range st.selfAlloc {
		l[layer+".alloc_mb"] += float64(b) / (1 << 20)
	}
}
