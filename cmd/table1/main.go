// Command table1 regenerates Table 1 of the paper: observed speedups of
// GRiP and POST on Livermore Loops 1–14 at 2, 4 and 8 functional units,
// with arithmetic-mean and weighted-harmonic-mean summary rows. Cells
// run through the sched/batch engine; -parallel controls the worker
// pool and -technique selects any registered backends — every
// selection, not just the paper's grip/post pair, renders through the
// same table layout.
//
// -config overrides the techniques' paper-default configuration for
// every cell; -sweep-unwind runs the whole matrix once per unwind
// factor and -sweep-gap once per gap-prevention setting (the ROADMAP's
// on/off ablation). Each configuration is a distinct cache key, so
// sweep cells cache independently while paper-default cells stay
// bit-identical to BENCH_table1.json.
//
// -cache-dir attaches a persistent metrics tier: every computed cell
// is written through to disk, and a later process serves it from there
// — a warm rerun schedules nothing. -cache-clear wipes that tier
// before running (refusing directories not shaped like a store); cache
// statistics — memory and disk hits, computed cells, quarantined panics, disk footprint,
// rejected entries and write/read errors — print to stderr at exit.
//
// -chaos runs the matrix under a fault schedule (injected backend
// panics, compute errors, torn and failing disk writes, failing reads,
// and cancellations of a seeded subset of cells) and verifies the
// engine's fault-tolerance contract: surviving cells are exact, and
// failures are isolated and recompute clean afterwards. With
// -bench-out it writes the surviving cells only, for benchdiff against
// the fault-free baseline.
//
// Usage:
//
//	go run ./cmd/table1 [-fus 2,4,8] [-loops LL1,LL3] [-csv] [-validate]
//	                    [-parallel N] [-technique grip,post]
//	                    [-config unwind=24,gap=false] [-sweep-unwind 0,12,24,48]
//	                    [-sweep-gap] [-cache-dir .gripcache] [-cache-clear]
//	                    [-timeout 5m] [-bench-out BENCH_table1.json]
//	                    [-chaos] [-chaos-seed 42]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sched/batch"
	"repro/internal/sched/store"
)

func main() {
	os.Exit(run())
}

// run holds main's body so the pprof defers fire on every exit path
// (os.Exit in main would skip them).
func run() int {
	fusFlag := flag.String("fus", "2,4,8", "comma-separated functional unit counts")
	loopsFlag := flag.String("loops", "", "comma-separated kernel names (default: all)")
	csv := flag.Bool("csv", false, "emit CSV instead of the paper layout")
	validate := flag.Bool("validate", false, "also prove scheduled code semantically equivalent")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "batch worker count")
	technique := flag.String("technique", "grip,post",
		fmt.Sprintf("comma-separated techniques to run (registered: %s)", strings.Join(sched.Names(), ",")))
	configFlag := flag.String("config", "",
		"scheduler configuration overrides for every cell, comma-separated key=value pairs\n"+
			"(unwind=N, maxunwind=N, optimize=BOOL, gap=BOOL, prelude=N, renaming=BOOL, periods=N)")
	sweepFlag := flag.String("sweep-unwind", "",
		"comma-separated unwind factors; runs the matrix once per factor through the shared\n"+
			"per-config cache (0 = the automatic ladder, i.e. the paper default)")
	sweepGap := flag.Bool("sweep-gap", false,
		"gap-prevention ablation: run the matrix with the section 3.3 machinery on and off\n"+
			"(composes with -sweep-unwind; each variant is a distinct cache key)")
	cacheDir := flag.String("cache-dir", "",
		"persistent result-cache directory; cells computed by any process are served\n"+
			"from disk by later runs against the same directory")
	cacheClear := flag.Bool("cache-clear", false, "wipe the disk cache tier before running (requires -cache-dir)")
	timeout := flag.Duration("timeout", 0, "per-cell timeout (0 = none)")
	chaos := flag.Bool("chaos", false,
		"run the matrix under the chaos fault schedule (injected panics, compute\n"+
			"errors, torn/failing disk writes, failing reads, random cancellations); surviving\n"+
			"cells must stay bit-identical, failures are rerun clean afterwards")
	chaosSeed := flag.Int64("chaos-seed", 42, "seed for the chaos run's cancellation subset (with -chaos)")
	benchOut := flag.String("bench-out", "", "write a JSON bench report (per-cell wall time + speedups) to this file\n(with -chaos: surviving cells only)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}()
	}

	fus, err := machine.ParseFUs(*fusFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	kernels := livermore.All()
	if *loopsFlag != "" {
		kernels = nil
		for _, name := range strings.Split(*loopsFlag, ",") {
			k := livermore.ByName(strings.TrimSpace(name))
			if k == nil {
				fmt.Fprintf(os.Stderr, "unknown kernel %q\n", name)
				return 2
			}
			kernels = append(kernels, k)
		}
	}

	var techniques []string
	hasGrip, hasPost := false, false
	for _, t := range strings.Split(*technique, ",") {
		t = strings.TrimSpace(t)
		if _, ok := sched.Lookup(t); !ok {
			fmt.Fprintf(os.Stderr, "unknown technique %q (registered: %s)\n", t, strings.Join(sched.Names(), ","))
			return 2
		}
		hasGrip = hasGrip || t == "grip"
		hasPost = hasPost || t == "post"
		techniques = append(techniques, t)
	}
	if *validate && !hasGrip {
		fmt.Fprintln(os.Stderr, "-validate proves GRiP schedules semantically equivalent; include grip in -technique")
		return 2
	}

	cfg, err := parseConfig(*configFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *cacheClear && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "-cache-clear requires -cache-dir")
		return 2
	}
	if *chaos {
		if *sweepFlag != "" || *sweepGap || *validate {
			fmt.Fprintln(os.Stderr, "-chaos does not compose with -sweep-unwind/-sweep-gap/-validate")
			return 2
		}
		if *cacheClear {
			d, err := store.OpenDisk(*cacheDir)
			if err == nil {
				err = d.Clear()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
		return runChaos(kernels, fus, techniques, *chaosSeed, *parallel, *timeout, *cacheDir, *benchOut)
	}
	var disk *store.Disk
	if *cacheDir != "" {
		disk, err = harness.EnableDiskCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if *cacheClear {
			if err := disk.Clear(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
	}

	// The run's configurations: the base config alone, or its expansion
	// by the sweep flags (which compose: -sweep-unwind × -sweep-gap).
	// Validation covers the same set, so -validate certifies exactly
	// the schedules the run displayed.
	variants := []sweepVariant{{cfg: cfg}}
	if *sweepFlag != "" {
		factors, err := parseFactors(*sweepFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		var expanded []sweepVariant
		for _, u := range factors {
			c := cfg
			c.Unwind = u
			label := fmt.Sprintf("unwind=%d", u)
			if u == 0 {
				label += " (auto)"
			}
			expanded = append(expanded, sweepVariant{label: label, cfg: c})
		}
		variants = expanded
	}
	if *sweepGap {
		var expanded []sweepVariant
		for _, v := range variants {
			on, off := v.cfg, v.cfg
			on.NoGapPrevention = false
			off.NoGapPrevention = true
			expanded = append(expanded,
				sweepVariant{label: joinLabel(v.label, "gap=on"), cfg: on},
				sweepVariant{label: joinLabel(v.label, "gap=off"), cfg: off})
		}
		variants = expanded
	}
	// Sweep output is selected by the flags, not the variant count: a
	// single-factor -sweep-unwind still renders as a sweep row.
	sweeping := *sweepFlag != "" || *sweepGap

	opts := batch.Options{
		Parallelism: *parallel,
		Timeout:     *timeout,
		Cache:       harness.SharedCache(),
	}

	start := time.Now()
	var outcomes []batch.Outcome
	var runErr error
	if sweeping {
		outcomes, runErr = runSweep(kernels, fus, techniques, variants, opts, *csv)
	} else {
		var tbl *harness.Table
		tbl, outcomes, runErr = harness.RunTable(context.Background(), kernels, fus, techniques, cfg, opts)
		if runErr == nil {
			switch {
			case *csv:
				fmt.Print(tbl.CSV())
			case len(techniques) == 2 && hasGrip && hasPost && cfg == (sched.Config{}):
				fmt.Println("Table 1: Observed Speed-up (GRiP vs POST)")
				fmt.Print(tbl.Format())
			default:
				fmt.Printf("Observed Speed-up (%s)\n", strings.Join(techniques, " vs "))
				fmt.Print(tbl.Format())
			}
		}
	}
	elapsed := time.Since(start)

	// The bench report is written even when cells failed: per-cell
	// errors land in the cells' Error fields, which is exactly what a
	// perf-trajectory comparison wants to see.
	if *benchOut != "" {
		if err := writeBench(*benchOut, outcomes, *parallel, elapsed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d cells, %.1fs wall)\n", *benchOut, len(outcomes), elapsed.Seconds())
	}
	printCacheStats(batch.Summarize(outcomes), disk)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		return 1
	}

	if *validate {
		for _, v := range variants {
			c := v.cfg
			suffix := ""
			if c != (sched.Config{}) {
				suffix = " [" + c.Fingerprint() + "]"
			}
			for _, k := range kernels {
				for _, f := range fus {
					if err := harness.ValidateCell(k, f, c); err != nil {
						fmt.Fprintf(os.Stderr, "VALIDATION FAILED %s @%dFU%s: %v\n", k.Name, f, suffix, err)
						return 1
					}
					fmt.Printf("validated %s @%dFU%s: scheduled code ≡ original loop\n", k.Name, f, suffix)
				}
			}
		}
	}
	return 0
}

// printCacheStats reports at exit how the run's cells were served —
// memory hits, disk hits, computed — and, when a disk tier is attached,
// what the persistent tier now holds and which of its operations
// failed.
func printCacheStats(st batch.Stats, disk *store.Disk) {
	fmt.Fprintf(os.Stderr, "cache: %d memory hits, %d disk hits, %d computed",
		st.MemoryHits, st.DiskHits, st.Computed)
	if st.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, ", %d quarantined panics", st.Quarantined)
	}
	if disk != nil {
		ds := disk.Stats()
		fmt.Fprintf(os.Stderr, "; disk tier: %d entries, %d bytes", ds.Entries, ds.Bytes)
		if ds.Rejected > 0 {
			fmt.Fprintf(os.Stderr, ", %d rejected (corrupt/stale, recomputed)", ds.Rejected)
		}
		if ds.WriteErrors > 0 {
			fmt.Fprintf(os.Stderr, ", %d write errors", ds.WriteErrors)
		}
		if ds.ReadErrors > 0 {
			fmt.Fprintf(os.Stderr, ", %d read errors", ds.ReadErrors)
		}
	}
	fmt.Fprintln(os.Stderr)
}

// runChaos is the -chaos mode: the matrix under the standard fault
// schedule, reported in terms of the fault-tolerance contract —
// survivors exact, failures isolated and recomputable. The bench report
// (when requested) holds survivors only, so benchdiff compares them
// against the fault-free baseline without treating the injected
// failures as regressions.
func runChaos(kernels []*livermore.Kernel, fus []int, techniques []string, seed int64, parallel int, timeout time.Duration, cacheDir, benchOut string) int {
	opts := harness.DefaultChaos(seed)
	opts.Parallelism = parallel
	opts.Timeout = timeout
	opts.DiskDir = cacheDir

	start := time.Now()
	rep, err := harness.ChaosTable(context.Background(), kernels, fus, techniques, opts)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	survivors := rep.Survivors()
	fmt.Printf("chaos seed %d: %d cells, %d survived, %d failed (%d quarantined panics, %d cancelled); %d cells cancelled in the storm pass\n",
		seed, rep.Stats.Jobs, rep.Stats.Succeeded, rep.Stats.Failed,
		rep.Stats.Quarantined, rep.Stats.Cancelled, batch.Summarize(rep.CancelOutcomes).Cancelled)
	fmt.Printf("chaos fires: compute=%d disk-write=%d disk-read=%d disk-open=%d\n",
		rep.Plan.Fires(faults.BatchCompute), rep.Plan.Fires(faults.DiskWrite),
		rep.Plan.Fires(faults.DiskRead), rep.Plan.Fires(faults.DiskOpen))

	recovered := 0
	for _, o := range rep.Recovered {
		if o.Err == nil {
			recovered++
		}
	}
	fmt.Printf("chaos recovery: %d/%d failed cells recomputed clean with faults disabled\n", recovered, len(rep.Recovered))
	printCacheStats(rep.Stats, rep.Disk)

	if benchOut != "" {
		if err := writeBench(benchOut, survivors, parallel, elapsed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d surviving cells, %.1fs wall)\n", benchOut, len(survivors), elapsed.Seconds())
	}

	// The contract, enforced: every failure recovers.
	if recovered != len(rep.Recovered) {
		fmt.Fprintln(os.Stderr, "chaos: some failed cells did not recover")
		return 1
	}
	return 0
}

// joinLabel composes sweep-dimension labels ("unwind=24 gap=off").
func joinLabel(a, b string) string {
	if a == "" {
		return b
	}
	return a + " " + b
}

// parseFactors parses the -sweep-unwind flag's factor list.
func parseFactors(s string) ([]int, error) {
	var factors []int
	for _, part := range strings.Split(s, ",") {
		u, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || u < 0 {
			return nil, fmt.Errorf("bad -sweep-unwind factor %q", part)
		}
		factors = append(factors, u)
	}
	return factors, nil
}

// parseConfig turns the -config flag's key=value list into a per-job
// scheduler configuration (zero value = paper defaults).
func parseConfig(s string) (sched.Config, error) {
	var cfg sched.Config
	if s == "" {
		return cfg, nil
	}
	for _, pair := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return cfg, fmt.Errorf("bad -config entry %q (want key=value)", pair)
		}
		var err error
		switch strings.ToLower(key) {
		case "unwind":
			cfg.Unwind, err = strconv.Atoi(val)
		case "maxunwind":
			cfg.MaxUnwind, err = strconv.Atoi(val)
		case "prelude":
			cfg.EmptyPrelude, err = strconv.Atoi(val)
		case "periods":
			cfg.Periods, err = strconv.Atoi(val)
		case "optimize":
			var b bool
			b, err = strconv.ParseBool(val)
			cfg.NoOptimize = !b
		case "gap":
			var b bool
			b, err = strconv.ParseBool(val)
			cfg.NoGapPrevention = !b
		case "renaming":
			cfg.Renaming, err = strconv.ParseBool(val)
		case "crosscheck":
			// Verification only: runs the retained reference scans next
			// to every summary-filtered fast path and panics on
			// divergence. Cannot change any cell.
			cfg.CrossCheck, err = strconv.ParseBool(val)
		default:
			return cfg, fmt.Errorf("unknown -config key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("bad -config value %q for %q: %v", val, key, err)
		}
	}
	return cfg, nil
}

// sweepVariant is one configuration of a sweep, with its display
// label.
type sweepVariant struct {
	label string
	cfg   sched.Config
}

// runSweep runs the technique matrix once per variant (unwind factors,
// gap-prevention on/off, or their cross product). Every variant is a
// distinct configuration fingerprint, so the shared cache holds the
// sweep's cells side by side; rerunning a variant is free.
func runSweep(kernels []*livermore.Kernel, fus []int, techniques []string, variants []sweepVariant, opts batch.Options, csv bool) ([]batch.Outcome, error) {
	if csv {
		fmt.Println("config,loop,fus,technique,speedup,converged,cache_hit,wall_ms")
	}
	var all []batch.Outcome
	for _, v := range variants {
		tbl, outs, err := harness.RunTable(context.Background(), kernels, fus, techniques, v.cfg, opts)
		all = append(all, outs...)
		if err != nil {
			return all, fmt.Errorf("%s: %w", v.label, err)
		}
		if csv {
			for _, o := range outs {
				r := o.Result
				fmt.Printf("%s,%s,%d,%s,%.3f,%v,%v,%.3f\n",
					strings.ReplaceAll(v.label, " ", ";"), o.Job.DisplayName(), o.Job.Machine.OpSlots, o.Job.Technique,
					r.Speedup, r.Converged, o.Tier != batch.TierCompute, float64(o.Wall.Microseconds())/1000)
			}
			continue
		}
		fmt.Printf("%-24s", v.label)
		for fi, f := range fus {
			if fi > 0 {
				fmt.Print(" |")
			}
			for ti, tech := range techniques {
				fmt.Printf(" %s@%d %5.2f", tech, f, tbl.MeanRow[fi].Stats[ti].Speedup)
			}
		}
		fmt.Println()
	}
	return all, nil
}

// writeBench renders the batch outcomes as the JSON bench report.
func writeBench(path string, outcomes []batch.Outcome, parallelism int, elapsed time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rep := batch.NewBenchReport(outcomes, batch.EffectiveParallelism(parallelism, len(outcomes)), elapsed)
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
