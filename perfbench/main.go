// Command perfbench is the repository's benchmark. It runs one workload —
// table1-grip, table1-post, fuzz-sweep or table1-warm, or all four in turn
// with -workload all — for a fixed time, checks every answer, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced run) as the last line of its standard output:
//
//	perfbench -workload table1-grip -seed 1 -seconds 10 -trace 0
//
// Each timed pass runs in a child process of this binary, so no
// process-wide state (the POST phase-1 memo, harness.SharedCache) carries
// from one pass to the next. README.md describes the workloads and
// metrics; run.py builds the binary and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// options are the command line of both the parent and its children.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	fuzzBase  int64
	fuzzCount int

	// Set by the parent on its children only.
	calibrate   bool
	setupOnly   bool
	traced      bool
	passSeconds float64
	warmDir     string
	rtTrace     string
	spansOut    string
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or "+allWorkloads)
	fs.Int64Var(&o.seed, "seed", 1, "seed of the job order")
	fs.IntVar(&o.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&o.trace, "trace", 0, "1: run the traced run and report per-layer metrics")
	fs.Int64Var(&o.fuzzBase, "fuzz-base", 0, "fuzz-sweep: first fuzzgen.SweepSpec seed")
	fs.IntVar(&o.fuzzCount, "fuzz-count", 50, "fuzz-sweep: number of generated loops")
	fs.BoolVar(&o.calibrate, "child-calibrate", false, "child: run the calibration kernel only")
	fs.BoolVar(&o.setupOnly, "child-setup-only", false, "child: stop once the inputs are ready")
	fs.BoolVar(&o.traced, "child-traced", false, "child: run the traced replicas")
	fs.Float64Var(&o.passSeconds, "child-pass-seconds", 0, "child: seconds of timed passes (table1-warm)")
	fs.StringVar(&o.warmDir, "child-warm-dir", "", "child: disk tier directory (table1-warm)")
	fs.StringVar(&o.rtTrace, "child-rt-trace", "", "child: runtime/trace output file")
	fs.StringVar(&o.spansOut, "child-spans", "", "child: span JSON output file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := o.workload == allWorkloads
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return o, fmt.Errorf("-workload %q: want one of %v or %s", o.workload, workloadNames, allWorkloads)
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	case o.fuzzCount < 1:
		return o, fmt.Errorf("-fuzz-count %d: want at least 1", o.fuzzCount)
	}
	return o, nil
}

// childEnv marks a child process; its value is irrelevant.
const childEnv = "PERFBENCH_CHILD"

func main() {
	start := time.Now()
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], start))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// childReport is what a child prints: its set-up time and timed passes
// (a set-up-only child has no passes), or the times of its calibration
// kernel runs.
type childReport struct {
	// SetupNs runs from main's start until the inputs are ready: job list,
	// fuzz loops, the warm workload's disk tier. Left out are the exec and
	// Go runtime start-up before main, and the garbage collection a pass
	// starts with: on a shared VM these varied 2-4x with host load, far
	// more than the set-up work itself.
	SetupNs   int64        `json:"setup_ns,omitempty"`
	Passes    []passReport `json:"passes,omitempty"`
	PeakRSSKB int64        `json:"peak_rss_kb,omitempty"`
	CalibNs   []int64      `json:"calib_ns,omitempty"`
}

// childMain builds the inputs, runs the timed passes (one for a cold
// workload) and prints a childReport. start is the clock at main's start.
func childMain(args []string, start time.Time) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	rep, err := runChild(o, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// runChild does what the options ask of a child: calibration kernel runs,
// a set-up alone, or a set-up and its timed passes.
func runChild(o options, mainStart time.Time) (rep childReport, err error) {
	if o.calibrate {
		for i := 0; i < calibSamples; i++ {
			rep.CalibNs = append(rep.CalibNs, calibrate().Nanoseconds())
		}
		return rep, nil
	}
	if o.rtTrace != "" {
		f, err := os.Create(o.rtTrace)
		if err != nil {
			return rep, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return rep, err
		}
		defer func() {
			trace.Stop()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	ctx, task := trace.NewTask(context.Background(), "perfbench."+o.workload)
	defer task.End()
	var setup *tracer
	if o.traced {
		setup = newTracer(ctx)
	}
	in, err := buildInput(o, setup)
	if err != nil {
		return rep, err
	}
	warm := o.workload == table1Warm
	if warm && !o.setupOnly {
		if err := populate(ctx, in, o.warmDir, setup); err != nil {
			return rep, err
		}
	}
	rep.SetupNs = time.Since(mainStart).Nanoseconds()
	if o.setupOnly {
		return rep, nil
	}
	var coldTracer *tracer
	if o.traced && !warm {
		coldTracer = newTracer(ctx)
		registerReplicas(coldTracer)
	}
	var last *tracer
	start := time.Now()
	for {
		var p passReport
		if warm {
			if o.traced {
				last = newTracer(ctx)
			}
			p, err = runPass(ctx, in, last)
		} else {
			last = coldTracer
			p, err = runColdPass(ctx, in, last)
		}
		if err != nil {
			return rep, err
		}
		if o.traced {
			setupLayers(setup, p.Layers)
		}
		rep.Passes = append(rep.Passes, p)
		if !warm || (len(rep.Passes) >= minWarmPasses && time.Since(start).Seconds() >= o.passSeconds) {
			break
		}
	}
	if o.spansOut != "" && last != nil {
		if err := writeSpans(o.spansOut, setup, last); err != nil {
			return rep, err
		}
	}
	rep.PeakRSSKB = peakRSSKB()
	return rep, nil
}

// minWarmPasses is the least number of timed passes a warm child runs.
const minWarmPasses = 3

// peakRSSKB reads the process's peak resident set from /proc, 0 where
// there is none.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
