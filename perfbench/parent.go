package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// metricDef is one reported metric; the lists below are BENCHMARK.json's.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"speedup_geomean", "x", "higher"},
	{"ok_frac", "frac", "higher"},
}

var perLayer = []metricDef{
	{"core.schedule_inf_ms", "ms", "lower"},
	{"core.moves_inf", "count", "lower"},
	{"core.us_per_move_inf", "us", "lower"},
	{"core.schedule_bounded_ms", "ms", "lower"},
	{"core.moves_bounded", "count", "lower"},
	{"core.us_per_move_bounded", "us", "lower"},
	{"core.barriers", "count", "lower"},
	{"core.gapless_rejects", "count", "lower"},
	{"core.suspensions", "count", "lower"},
	{"core.arrived_frac", "frac", "higher"},
	{"core.alloc_mb", "MiB", "lower"},
	{"pipeline.ladder_runs", "count", "lower"},
	{"pipeline.ladder_wasted_frac", "frac", "lower"},
	{"pipeline.unwind_ms", "ms", "lower"},
	{"pipeline.unwound_ops", "count", "lower"},
	{"pipeline.optimize_ms", "ms", "lower"},
	{"pipeline.optimize_removed", "count", "higher"},
	{"pipeline.buildgraph_ms", "ms", "lower"},
	{"pipeline.detect_ms", "ms", "lower"},
	{"pipeline.alloc_mb", "MiB", "lower"},
	{"deps.build_ms", "ms", "lower"},
	{"deps.build_ops", "count", "lower"},
	{"deps.analyze_ms", "ms", "lower"},
	{"deps.alloc_mb", "MiB", "lower"},
	{"post.clone_ms", "ms", "lower"},
	{"post.from_ms", "ms", "lower"},
	{"post.rows_added", "count", "lower"},
	{"post.alloc_mb", "MiB", "lower"},
	{"modulo.schedule_ms", "ms", "lower"},
	{"modulo.alloc_mb", "MiB", "lower"},
	{"listsched.schedule_ms", "ms", "lower"},
	{"listsched.alloc_mb", "MiB", "lower"},
	{"sim.validate_ms", "ms", "lower"},
	{"sim.validate_calls", "count", "lower"},
	{"sim.alloc_mb", "MiB", "lower"},
	{"fuzzgen.spec_ms", "ms", "lower"},
	{"fuzzgen.alloc_mb", "MiB", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.get_calls", "count", "lower"},
	{"store.get_p50_us", "us", "lower"},
	{"store.rejected", "count", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.put_p50_us", "us", "lower"},
	{"store.alloc_mb", "MiB", "lower"},
	{"batch.overhead_ms", "ms", "lower"},
	{"batch.cache_hits", "count", "higher"},
	{"batch.cache_misses", "count", "lower"},
	{"batch.alloc_mb", "MiB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"proc.peak_rss_mb", "MiB", "lower"},
	{"tracing.overhead_frac", "frac", "lower"},
}

// hardLimit bounds a whole invocation; the contract allows 180 s.
const hardLimit = 170 * time.Second

// Passes a run makes at least, whatever -seconds says: enough for a
// median, and two traced passes to compare counters.
const (
	minColdPasses   = 3
	minTracedPasses = 2
)

// warmChildren is how many set-ups a table1-warm run makes (each in its
// own child), so setup_s is a median too.
const warmChildren = 5

// scratchRoot holds everything a run writes, under the checkout's build
// directory.
var scratchRoot = filepath.Join(".bench_build", "perfbench")

type childResult struct {
	traced bool
	childReport
}

// measurement is what runChildren gathers: the measured children, the
// set-up times (seconds) of the untraced ones and of set-up-only
// children, and the calibration kernel's times (seconds) from the
// calibration children run between them.
type measurement struct {
	children []childResult
	setups   []float64
	calib    []float64
}

// minSetups is how many set-up times a cold run gathers at least; children
// that stop once their inputs are ready make up the difference.
// A set-up costs milliseconds, a table1-post pass more than a second.
const minSetups = 40

// calibEvery is how long the parent lets pass between calibration
// children.
const calibEvery = 500 * time.Millisecond

// parentMain runs the children a workload needs, checks them, and prints
// the result line. It returns 0 when every check passed, 1 when one
// failed (after printing the result), 2 when the run could not be made.
func parentMain(args []string, out io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	workloads := []string{o.workload}
	if o.workload == allWorkloads {
		workloads = workloadNames
	}
	// With -workload all, the result line sums the workloads' job counts
	// and names each metric <workload>.<metric>.
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		o.workload = w
		m, err := runChildren(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		res := summarize(o, m)
		for _, line := range res.lines {
			fmt.Fprintln(out, line)
		}
		if len(workloads) == 1 {
			total = res.result
			break
		}
		total.Correct = total.Correct && res.result.Correct
		total.Attempted += res.result.Attempted
		total.Failed += res.result.Failed
		for name, v := range res.result.Metrics {
			total.Metrics[w+"."+name] = v
		}
	}
	data, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(out, string(data))
	if !total.Correct {
		return 1
	}
	return 0
}

// runChildren runs child processes until the workload has been measured
// for o.seconds. A cold workload runs one pass per child; table1-warm
// runs warmChildren children, each setting up its own disk tier and then
// timing passes for its share of the time. With -trace 1, untraced and
// traced children alternate. A calibration child runs first and then
// after every child that ends calibEvery or more after the last one.
func runChildren(o options) (measurement, error) {
	var m measurement
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return m, err
	}
	traceDir := filepath.Join(scratchRoot, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return m, err
	}
	runDir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(runDir)
	warm := o.workload == table1Warm
	start := time.Now()
	// setUp runs a child that stops once its inputs are ready, for one
	// more set-up time. Cold runs pace these over the run
	// (paced) so they sample the machine when the passes do.
	setUp := func(paced bool) error {
		for !warm && len(m.setups) < minSetups {
			if paced && float64(len(m.setups)) >= minSetups*time.Since(start).Seconds()/float64(o.seconds) {
				return nil
			}
			c := o
			c.setupOnly = true
			rep, err := spawnChild(ctx, exe, c)
			if err != nil {
				return err
			}
			if rep.SetupNs <= 0 {
				return fmt.Errorf("%s set-up child: no set-up time", o.workload)
			}
			m.setups = append(m.setups, float64(rep.SetupNs)/1e9)
		}
		return nil
	}
	var lastCalib time.Time
	calibrate := func() error {
		c := o
		c.calibrate = true
		rep, err := spawnChild(ctx, exe, c)
		for _, ns := range rep.CalibNs {
			m.calib = append(m.calib, float64(ns)/1e9)
		}
		lastCalib = time.Now()
		return err
	}
	if err := calibrate(); err != nil {
		return m, err
	}

	nWarm := warmChildren
	if o.trace == 1 {
		nWarm = 2 * minTracedPasses
	}
	var untraced, traced int
	for i := 0; ; i++ {
		if warm && i == nWarm {
			break
		}
		if !warm && time.Since(start).Seconds() >= float64(o.seconds) &&
			untraced >= minColdPasses-o.trace && traced >= minTracedPasses*o.trace {
			break
		}
		c := o
		c.traced = o.trace == 1 && i%2 == 1
		if warm {
			c.passSeconds = float64(o.seconds) / float64(nWarm)
			c.warmDir = filepath.Join(runDir, "warm-"+strconv.Itoa(i))
		}
		if c.traced {
			c.rtTrace = filepath.Join(traceDir, o.workload+".trace")
			c.spansOut = filepath.Join(traceDir, o.workload+".spans.json")
		}
		rep, err := spawnChild(ctx, exe, c)
		if err != nil {
			return m, err
		}
		if len(rep.Passes) == 0 {
			return m, fmt.Errorf("%s child: no passes", o.workload)
		}
		m.children = append(m.children, childResult{traced: c.traced, childReport: rep})
		if c.traced {
			traced++
		} else {
			untraced++
			m.setups = append(m.setups, float64(rep.SetupNs)/1e9)
		}
		if time.Since(lastCalib) >= calibEvery {
			if err := calibrate(); err != nil {
				return m, err
			}
		}
		if err := setUp(true); err != nil {
			return m, err
		}
	}
	return m, setUp(false)
}

func (o options) childArgs() []string {
	args := []string{
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-fuzz-base", strconv.FormatInt(o.fuzzBase, 10),
		"-fuzz-count", strconv.Itoa(o.fuzzCount),
	}
	if o.calibrate {
		args = append(args, "-child-calibrate")
	}
	if o.setupOnly {
		args = append(args, "-child-setup-only")
	}
	if o.traced {
		args = append(args, "-child-traced")
	}
	if o.passSeconds > 0 {
		args = append(args, "-child-pass-seconds", strconv.FormatFloat(o.passSeconds, 'g', -1, 64))
	}
	for _, kv := range [][2]string{{"-child-warm-dir", o.warmDir}, {"-child-rt-trace", o.rtTrace}, {"-child-spans", o.spansOut}} {
		if kv[1] != "" {
			args = append(args, kv[0], kv[1])
		}
	}
	return args
}

// spawnChild runs one child process and reads its report.
func spawnChild(ctx context.Context, exe string, o options) (childReport, error) {
	cmd := exec.CommandContext(ctx, exe, o.childArgs()...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	var rep childReport
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("%s child: %w", o.workload, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("%s child: report: %w", o.workload, err)
	}
	return rep, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type summary struct {
	lines  []string
	result result
}

// summarize checks the children's passes against each other and turns
// them into the result line. Every pass must give every job the metrics
// the first untraced pass gave it; with -trace 1 every traced pass must
// also repeat the first traced pass's work counters.
func summarize(o options, m measurement) summary {
	children := m.children
	var s summary
	s.result.Metrics = map[string]metricValue{}
	say := func(format string, args ...any) { s.lines = append(s.lines, fmt.Sprintf(format, args...)) }
	problems := 0

	var ref, refTraced *passReport
	var walls, tracedWalls, allocs, gcCycles, gcPause, rss []float64
	layers := map[string][]float64{}
	failShown := 0
	for ci := range children {
		c := &children[ci]
		if !c.traced {
			rss = append(rss, float64(c.PeakRSSKB)/1024)
		}
		for pi := range c.Passes {
			p := &c.Passes[pi]
			if ref == nil && !c.traced {
				ref = p
			}
			if c.traced {
				tracedWalls = append(tracedWalls, float64(p.WallNs)/1e9)
				for k, v := range p.Layers {
					layers[k] = append(layers[k], v)
				}
				if refTraced == nil {
					refTraced = p
				} else if d := diffCounters(refTraced.Counters, p.Counters); d != "" {
					problems++
					say("FAIL traced pass counters differ: %s", d)
				}
			} else {
				walls = append(walls, float64(p.WallNs)/1e9)
				allocs = append(allocs, float64(p.AllocBytes)/(1<<20))
				gcCycles = append(gcCycles, float64(p.GCCycles))
				gcPause = append(gcPause, float64(p.GCPauseNs)/1e6)
			}
		}
	}
	for ci := range children {
		for pi := range children[ci].Passes {
			p := &children[ci].Passes[pi]
			for i := range p.Jobs {
				j := &p.Jobs[i]
				s.result.Attempted++
				if j.Fail == "" && (len(ref.Jobs) != len(p.Jobs) || ref.Jobs[i].Name != j.Name || ref.Jobs[i].Metrics != j.Metrics) {
					j.Fail = "metrics differ from the first untraced pass"
				}
				if j.Fail != "" {
					s.result.Failed++
					if failShown < 10 {
						failShown++
						say("FAIL %s: %s", j.Name, j.Fail)
					}
				}
			}
		}
	}
	s.result.Correct = s.result.Failed == 0 && problems == 0
	okFrac := float64(s.result.Attempted-s.result.Failed) / float64(s.result.Attempted)

	say("workload %s: seed %d, %d children, %d untraced and %d traced passes, %d jobs attempted, %d failed",
		o.workload, o.seed, len(children), len(walls), len(tracedWalls), s.result.Attempted, s.result.Failed)
	if o.workload == fuzzSweep {
		say("fuzz seed base %d, %d loops (fuzzgen.SweepSpec seeds %d..%d)",
			o.fuzzBase, o.fuzzCount, o.fuzzBase, o.fuzzBase+int64(o.fuzzCount)-1)
	}
	// Pass times are normalized by the calibration kernel (calib.go);
	// set-up times are not, they did not follow it.
	e2e := map[string]float64{
		"wall_s":          median(walls) * calibRef.Seconds() / median(m.calib),
		"setup_s":         median(m.setups),
		"alloc_mb":        median(allocs),
		"speedup_geomean": geomeanSpeedup(ref),
		"ok_frac":         okFrac,
	}
	say("  %-16s %.6g frac (%d/%d)", "failed_frac", 1-okFrac, s.result.Failed, s.result.Attempted)
	for _, m := range endToEnd {
		say("  %-16s %.6g %s", m.Name, e2e[m.Name], m.Unit)
	}
	say("  as measured: wall %.6g s; calibration kernel %.6g s (median of %d), reference %.6g s",
		median(walls), median(m.calib), len(m.calib), calibRef.Seconds())
	if o.trace == 0 {
		for _, m := range endToEnd {
			s.result.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
		return s
	}

	l := map[string]float64{}
	for k, vs := range layers {
		l[k] = median(vs)
	}
	l["runtime.gc_cycles"] = median(gcCycles)
	l["runtime.gc_pause_ms"] = median(gcPause)
	l["proc.peak_rss_mb"] = median(rss)
	l["tracing.overhead_frac"] = median(tracedWalls)/median(walls) - 1
	for _, m := range perLayer {
		s.result.Metrics[m.Name] = metricValue{l[m.Name], m.Unit}
		say("  %-28s %.6g %s", m.Name, l[m.Name], m.Unit)
	}
	return s
}

// diffCounters names the first counter that differs, "" when none does.
func diffCounters(a, b map[string]int64) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if a[k] != b[k] {
			return fmt.Sprintf("%s %d vs %d", k, a[k], b[k])
		}
	}
	return ""
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// geomeanSpeedup is the geometric mean of the pass's job speedups.
func geomeanSpeedup(p *passReport) float64 {
	var sum float64
	n := 0
	for _, j := range p.Jobs {
		if j.Metrics.Speedup > 0 {
			sum += math.Log(j.Metrics.Speedup)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
