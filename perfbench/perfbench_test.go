package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent code spawns os.Executable() as its children, which here is this
// binary. The benchmark runs from the repository root, so the parent
// moves there; children inherit that directory.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], time.Now()))
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func mustOptions(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseOptions(args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func mustRun(t *testing.T, o options) ([]childResult, summary) {
	t.Helper()
	m, err := runChildren(o)
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(o, m)
	if !s.result.Correct || s.result.Failed != 0 {
		t.Fatalf("run not correct:\n%s", strings.Join(s.lines, "\n"))
	}
	return m.children, s
}

// TestBenchmarkJSON keeps the metric lists of the code and of
// BENCHMARK.json the same.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v\ncode has %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer %v\ncode has %v", doc.PerLayer, perLayer)
	}
}

// TestColdPassGuard: a process runs one cold pass at most.
func TestColdPassGuard(t *testing.T) {
	in, err := buildInput(mustOptions(t, "-workload", table1Grip), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runColdPass(context.Background(), in, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := runColdPass(context.Background(), in, nil); !errors.Is(err, errColdReuse) {
		t.Fatalf("second cold pass: err %v, want errColdReuse", err)
	}
}

// TestTable1PostRecomputesPhase1 shows every timed pass of table1-post
// starts with a cold phase-1 memo: in each pass, one of LL7's three POST
// jobs pays for phase 1 (hundreds of ms), and the two that reuse it take
// a few ms. A warm memo would make all three cheap.
func TestTable1PostRecomputesPhase1(t *testing.T) {
	children, _ := mustRun(t, mustOptions(t, "-workload", table1Post, "-seconds", "1"))
	passes := 0
	for _, c := range children {
		for _, p := range c.Passes {
			passes++
			var walls []int64
			for _, j := range p.Jobs {
				if strings.HasPrefix(j.Name, "LL7@") {
					walls = append(walls, j.WallNs)
				}
			}
			if len(walls) != 3 {
				t.Fatalf("pass has %d LL7 jobs, want 3", len(walls))
			}
			lo, hi := min(walls[0], walls[1], walls[2]), max(walls[0], walls[1], walls[2])
			if hi < 10*lo {
				t.Errorf("pass %d: LL7 POST jobs took %v ns: no job recomputed phase 1", passes, walls)
			}
		}
	}
	if passes < minColdPasses {
		t.Errorf("%d passes, want at least %d", passes, minColdPasses)
	}
}

// TestFuzzAlternateSeedBase runs fuzz-sweep on loops other than the
// default ones, so a claim can be re-checked on seeds not used while it
// was made, and checks the seed base is echoed.
func TestFuzzAlternateSeedBase(t *testing.T) {
	_, s := mustRun(t, mustOptions(t, "-workload", fuzzSweep, "-seconds", "1", "-fuzz-base", "100000"))
	if !strings.Contains(strings.Join(s.lines, "\n"), "fuzz seed base 100000, 50 loops") {
		t.Errorf("seed base not echoed:\n%s", strings.Join(s.lines, "\n"))
	}
}

// TestTracedRuns runs the traced run of a cold and of the warm workload:
// the replicas must give every job the untraced metrics, counters must
// repeat, and every per-layer metric must be reported.
func TestTracedRuns(t *testing.T) {
	for _, w := range []string{table1Grip, table1Warm} {
		t.Run(w, func(t *testing.T) {
			_, s := mustRun(t, mustOptions(t, "-workload", w, "-seconds", "1", "-trace", "1"))
			for _, m := range perLayer {
				if _, ok := s.result.Metrics[m.Name]; !ok {
					t.Errorf("metric %s missing", m.Name)
				}
			}
			m := s.result.Metrics
			switch w {
			case table1Grip:
				if m["core.moves_bounded"].Value == 0 || m["core.moves_inf"].Value != 0 {
					t.Errorf("core moves bounded %v inf %v", m["core.moves_bounded"], m["core.moves_inf"])
				}
			case table1Warm:
				if m["store.get_calls"].Value != 84 || m["batch.cache_hits"].Value != 84 {
					t.Errorf("store gets %v, cache hits %v, want 84", m["store.get_calls"], m["batch.cache_hits"])
				}
			}
		})
	}
}

// TestSummarizeRejectsDivergence: a job whose metrics change between
// passes, or a traced pass whose counters differ, fails the run.
func TestSummarizeRejectsDivergence(t *testing.T) {
	job := func(speedup float64) jobReport {
		r := jobReport{Name: "LL1@2/grip"}
		r.Metrics.Speedup = speedup
		return r
	}
	pass := func(speedup float64, moves int64) passReport {
		return passReport{Jobs: []jobReport{job(speedup)}, Counters: map[string]int64{"core.moves_bounded": moves}}
	}
	o := mustOptions(t, "-workload", table1Grip, "-trace", "1")
	run := func(untraced, traced1, traced2 passReport) summary {
		return summarize(o, measurement{calib: []float64{calibRef.Seconds()}, children: []childResult{
			{childReport: childReport{Passes: []passReport{untraced}}},
			{traced: true, childReport: childReport{Passes: []passReport{traced1}}},
			{traced: true, childReport: childReport{Passes: []passReport{traced2}}},
		}})
	}
	if s := run(pass(2, 0), pass(2, 5), pass(2, 5)); !s.result.Correct {
		t.Fatalf("agreeing passes rejected:\n%s", strings.Join(s.lines, "\n"))
	}
	if s := run(pass(2, 0), pass(2.5, 5), pass(2, 5)); s.result.Correct || s.result.Failed != 1 {
		t.Errorf("changed metrics: correct %t failed %d", s.result.Correct, s.result.Failed)
	}
	if s := run(pass(2, 0), pass(2, 5), pass(2, 6)); s.result.Correct {
		t.Error("changed counters accepted")
	}
}
