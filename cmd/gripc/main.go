// Command gripc schedules a loop described in the textir format with
// any registered technique and reports the pipelined kernel, its rate,
// and the speedup, optionally printing the full schedule. Several
// machine widths can be compared in one run; every width runs through
// the batch engine, -parallel of them at a time.
//
// Usage:
//
//	go run ./cmd/gripc -fus 4 [-technique grip|post|modulo|list] [-print] [-no-opt] < loop.txt
//	go run ./cmd/gripc -fus 2,4,8 -technique grip -parallel 4 < loop.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/sched/batch"
	"repro/internal/textir"
)

func main() {
	fusFlag := flag.String("fus", "4", "functional units (comma-separated list compares widths)")
	technique := flag.String("technique", "grip",
		fmt.Sprintf("scheduling technique (registered: %s)", strings.Join(sched.Names(), ", ")))
	printRows := flag.Bool("print", false, "print the scheduled rows (grip and post only)")
	noOpt := flag.Bool("no-opt", false, "disable redundant-operation removal (grip and post only)")
	unwind := flag.Int("unwind", 0, "fix the unwind factor (0 = automatic ladder); joins the cache key")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count when comparing several widths")
	cacheDir := flag.String("cache-dir", "",
		"persistent result-cache directory shared with cmd/table1; widths already scheduled\n"+
			"by any process are served from disk (-print always reschedules: the disk tier\n"+
			"holds metrics, not schedules)")
	flag.Parse()

	if *cacheDir != "" {
		if _, err := harness.EnableDiskCache(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	tech := *technique
	if _, ok := sched.Lookup(tech); !ok {
		fmt.Fprintf(os.Stderr, "unknown technique %q (registered: %s)\n", tech, strings.Join(sched.Names(), ", "))
		os.Exit(2)
	}
	// -print renders the raw pipeline schedule and -no-opt is a
	// pipelining knob; the single-iteration baselines have neither.
	if (*printRows || *noOpt) && tech != "grip" && tech != "post" {
		fmt.Fprintf(os.Stderr, "-print/-no-opt support only grip and post (got %q)\n", tech)
		os.Exit(2)
	}

	fus, err := machine.ParseFUs(*fusFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	spec, err := textir.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("loop %s: %d ops/iteration sequential\n", spec.Name, spec.SeqOpsPerIter())

	cfg := sched.Config{Unwind: *unwind, NoOptimize: *noOpt}
	want := sched.WantMetrics
	if *printRows {
		want = sched.WantRaw
	}
	var jobs []batch.Job
	for _, f := range fus {
		jobs = append(jobs, batch.Job{Technique: tech, Spec: spec, Machine: machine.New(f), Config: cfg, Want: want})
	}
	// The shared cache carries the tiered store: in-memory always, plus
	// the -cache-dir disk tier so widths scheduled by earlier processes
	// (this command or cmd/table1) cost a file read.
	outcomes, err := batch.Run(context.Background(), jobs,
		batch.Options{Parallelism: *parallel, Cache: harness.SharedCache()})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "%dFU: %v\n", o.Job.Machine.OpSlots, o.Err)
			os.Exit(1)
		}
		r := o.Result
		kernel := ""
		if r.KernelIterSpan > 0 {
			kernel = fmt.Sprintf(" kernel=%d rows/%d iters", r.KernelRows, r.KernelIterSpan)
		}
		fmt.Printf("%2dFU %s: %.3f cycles/iteration, speedup %.2f, converged=%v%s\n",
			o.Job.Machine.OpSlots, r.Technique, r.CyclesPerIter, r.Speedup, r.Converged, kernel)
		if *printRows {
			printSchedule(spec, r.Raw().(*pipeline.Result))
		}
	}
}

// printSchedule prints a grip or post schedule row by row, ops tagged
// by their source-body position ("+" the counter increment, "cj" the
// loop's conditional jump).
func printSchedule(spec *ir.LoopSpec, res *pipeline.Result) {
	fmt.Printf("unwound %d iterations, %d removed ops\n", res.U, res.Unwound.Removed())
	name := func(origin int) string {
		switch origin {
		case len(spec.Body):
			return "+"
		case len(spec.Body) + 1:
			return "cj"
		}
		return fmt.Sprintf("o%d.", origin)
	}
	fmt.Print(harness.FigureRows(res.Unwound.G, name, 0))
}
