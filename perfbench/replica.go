package main

import (
	"context"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/modulo"
	"repro/internal/pipeline"
	"repro/internal/post"
	"repro/internal/ps"
	"repro/internal/sched"
	"repro/internal/sched/store"
)

// The traced run schedules through replicas of the four registered
// backends. Each replica repeats its backend's call sequence through the
// exported functions of the layer packages, with a span around every
// call, and reports the same sched.Metrics; the benchmark checks that
// equality job by job, which shows the replica did the same work. If a
// backend changes its call sequence, that check fails until the replica
// here follows it.

// replicaPrefix prefixes the registry names of the replicas.
const replicaPrefix = "perfbench-"

// registerReplicas adds the replicas to the sched registry, all tracing
// into t. It is called once, by a traced child process.
func registerReplicas(t *tracer) {
	sched.Register(gripReplica{t})
	sched.Register(&postReplica{t: t, memo: map[string]*pipeline.Result{}})
	sched.Register(moduloReplica{t})
	sched.Register(listReplica{t})
}

type gripReplica struct{ t *tracer }

func (gripReplica) Name() string { return replicaPrefix + "grip" }

func (r gripReplica) Schedule(ctx context.Context, req sched.Request) (*sched.Result, error) {
	r.t.startJob()
	res, err := ladder(ctx, r.t, req.Spec, req.Config.Pipeline(req.Machine))
	if err != nil {
		return nil, err
	}
	return pipelineResult("grip", res, req.Want), nil
}

// postReplica keeps its own phase-1 memo, keyed as the registry's is. One
// traced pass runs per process, so the memo starts cold in every pass.
type postReplica struct {
	t    *tracer
	memo map[string]*pipeline.Result
}

func (*postReplica) Name() string { return replicaPrefix + "post" }

func (r *postReplica) Schedule(ctx context.Context, req sched.Request) (*sched.Result, error) {
	r.t.startJob()
	cfg := req.Config.Pipeline(req.Machine)
	p1cfg := post.Phase1Config(cfg)
	key := req.Spec.Fingerprint() + "|" + p1cfg.Fingerprint()
	phase1, ok := r.memo[key]
	if !ok {
		sp := r.t.begin("post.phase1")
		res, err := ladder(ctx, r.t, req.Spec, p1cfg)
		r.t.end(sp)
		if err != nil {
			return nil, err
		}
		r.memo[key] = res
		phase1 = res
	}
	sp := r.t.begin("post.clone")
	c := phase1.Clone()
	r.t.end(sp)
	sp = r.t.begin("post.from")
	res, err := post.From(ctx, c, cfg)
	r.t.end(sp)
	if err != nil {
		return nil, err
	}
	r.t.count("post.rows_added", res.Rows-phase1.Rows)
	return pipelineResult("post", res, req.Want), nil
}

type moduloReplica struct{ t *tracer }

func (moduloReplica) Name() string { return replicaPrefix + "modulo" }

func (r moduloReplica) Schedule(ctx context.Context, req sched.Request) (*sched.Result, error) {
	r.t.startJob()
	sp := r.t.begin("modulo.schedule")
	res, err := modulo.Schedule(ctx, req.Spec, req.Machine)
	r.t.end(sp)
	if err != nil {
		return nil, err
	}
	return sched.NewResult(sched.Metrics{
		Technique:      "modulo",
		Loop:           req.Spec.Name,
		CyclesPerIter:  float64(res.II),
		Speedup:        res.Speedup,
		Converged:      true,
		KernelRows:     res.II,
		KernelIterSpan: 1,
		Rows:           res.Makespan,
	}, attach(req.Want, res)), nil
}

type listReplica struct{ t *tracer }

func (listReplica) Name() string { return replicaPrefix + "list" }

func (r listReplica) Schedule(ctx context.Context, req sched.Request) (*sched.Result, error) {
	r.t.startJob()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := r.t.begin("listsched.schedule")
	res := listsched.Schedule(req.Spec, req.Machine)
	r.t.end(sp)
	return sched.NewResult(sched.Metrics{
		Technique:      "list",
		Loop:           req.Spec.Name,
		CyclesPerIter:  float64(res.Cycles),
		Speedup:        res.Speedup,
		Converged:      true,
		KernelRows:     res.Cycles,
		KernelIterSpan: 1,
		Rows:           res.Cycles,
	}, attach(req.Want, res)), nil
}

func attach(want sched.Want, raw any) any {
	if want == sched.WantRaw {
		return raw
	}
	return nil
}

// pipelineResult normalizes a pipeline result as the grip and post
// backends do.
func pipelineResult(name string, res *pipeline.Result, want sched.Want) *sched.Result {
	m := sched.Metrics{
		Technique:     name,
		Loop:          res.Spec.Name,
		CyclesPerIter: res.CyclesPerIter,
		Speedup:       res.Speedup,
		Converged:     res.Converged,
		Rows:          res.Rows,
		Barriers:      res.Stats.ResourceBarriers,
	}
	if res.Kernel != nil {
		m.KernelRows = res.Kernel.Rows
		m.KernelIterSpan = res.Kernel.IterSpan
	}
	return sched.NewResult(m, attach(want, res))
}

// ladder repeats pipeline.PerfectPipeline: unwind factors 12, 24, 48, …
// up to MaxUnwind (or the fixed factor), stopping at the first run whose
// pattern converges.
func ladder(ctx context.Context, t *tracer, spec *ir.LoopSpec, cfg pipeline.Config) (*pipeline.Result, error) {
	factors := []int{cfg.Unwind}
	if cfg.Unwind == 0 {
		max := cfg.MaxUnwind
		if max <= 0 {
			max = pipeline.DefaultMaxUnwind
		}
		factors = nil
		for u := 12; u <= max; u *= 2 {
			factors = append(factors, u)
		}
	}
	var last *pipeline.Result
	var coreNs, lastCoreNs int64
	for _, u := range factors {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, ns, err := ladderRun(ctx, t, spec, cfg, u)
		if err != nil {
			return nil, err
		}
		t.count("pipeline.ladder_runs", 1)
		coreNs += ns
		lastCoreNs = ns
		last = res
		if res.Converged {
			break
		}
	}
	if t != nil {
		t.ladderCoreNs += coreNs
		t.ladderWastedNs += coreNs - lastCoreNs
	}
	return last, nil
}

// ladderRun is one rung of the ladder, the sequence of pipeline's
// unexported pipelineOnce. It also returns the nanoseconds spent in
// core.Schedule.
func ladderRun(ctx context.Context, t *tracer, spec *ir.LoopSpec, cfg pipeline.Config, u int) (*pipeline.Result, int64, error) {
	sp := t.begin("pipeline.unwind")
	uw, err := pipeline.Unwind(spec, u)
	t.end(sp)
	if err != nil {
		return nil, 0, err
	}
	t.count("pipeline.unwound_ops", len(uw.Ops))
	if cfg.Optimize {
		sp = t.begin("pipeline.optimize")
		uw.Optimize()
		t.end(sp)
		t.count("pipeline.optimize_removed", uw.Removed())
	}
	sp = t.begin("pipeline.buildgraph")
	g := uw.BuildGraph()
	t.end(sp)

	sp = t.begin("deps.build")
	ddg := deps.Build(uw.Ops)
	t.end(sp)
	t.count("deps.build_ops", len(uw.Ops))

	sp = t.begin("core.newctx")
	pctx := ps.NewCtx(g, cfg.Machine, uw.ExitLive)
	pctx.D = ddg
	pri := deps.NewPriority(ddg)
	t.end(sp)

	regime := "bounded"
	if cfg.Machine.InfiniteOps() {
		regime = "inf"
	}
	sp = t.begin("core.schedule_" + regime)
	stats, err := core.Schedule(ctx, pctx, uw.Ops, pri, core.Options{
		GapPrevention: cfg.GapPrevention,
		EmptyPrelude:  cfg.EmptyPrelude,
		Renaming:      cfg.Renaming,
		TraceNode:     cfg.TraceNode,
		CrossCheck:    cfg.CrossCheck,
	})
	t.end(sp)
	var coreNs int64
	if t != nil {
		coreNs = t.dur(sp)
	}
	if err != nil {
		return nil, 0, err
	}
	t.count("core.moves_"+regime, stats.Moves)
	t.count("core.barriers", stats.ResourceBarriers)
	t.count("core.gapless_rejects", stats.GaplessRejects)
	t.count("core.suspensions", stats.Suspensions)
	t.count("core.arrived", stats.ArrivedAtTarget)
	t.count("core.partial", stats.PartialMoves)

	sp = t.begin("pipeline.detect")
	res := &pipeline.Result{Spec: spec, U: u, Stats: stats, Unwound: uw, Rows: len(g.MainChain())}
	periods := cfg.Periods
	if periods == 0 {
		periods = pipeline.DefaultPeriods
	}
	if k, ok := pipeline.DetectPattern(g, periods); ok {
		res.Converged = true
		res.Kernel = k
		res.CyclesPerIter = k.CyclesPerIter()
	} else if rate, ok := pipeline.MeasuredRate(g, u/4, 3*u/4); ok {
		res.CyclesPerIter = rate
	} else {
		res.CyclesPerIter = float64(res.Rows) / float64(u)
	}
	if res.CyclesPerIter > 0 {
		res.Speedup = float64(spec.SeqOpsPerIter()) / res.CyclesPerIter
	}
	t.end(sp)
	return res, coreNs, nil
}

// timedStore wraps the disk tier handed to batch.NewTieredCache with a
// span around every Get and Put. A Get starts a job: the cache asks the
// disk tier once per job, in job order, after its memory tier misses.
type timedStore struct {
	t     *tracer
	inner store.Store
	// jobs reports whether Gets start jobs (timed passes) or belong to
	// set-up (false).
	jobs bool
}

func (s timedStore) Get(key string) (sched.Metrics, bool) {
	if s.jobs {
		s.t.startJob()
	}
	sp := s.t.begin("store.get")
	m, ok := s.inner.Get(key)
	s.t.end(sp)
	return m, ok
}

func (s timedStore) Put(key string, m sched.Metrics) {
	sp := s.t.begin("store.put")
	s.inner.Put(key, m)
	s.t.end(sp)
}

func (s timedStore) Stats() store.Stats { return s.inner.Stats() }
