package harness

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/fuzzgen"
	"repro/internal/sched"
	"repro/internal/testutil"
)

// TestCorpusReplay is the tier-1 regression gate: every checked-in
// crasher/mismatch reproducer must replay green through the full
// technique x machine matrix with cross-checks armed.
func TestCorpusReplay(t *testing.T) {
	testutil.LeakCheck(t)
	results, err := ReplayCorpus(context.Background(), "../../testdata/corpus", FuzzOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 8 {
		t.Fatalf("replayed only %d corpus entries; the checked-in corpus has at least 8", len(results))
	}
	for _, r := range results {
		for _, f := range r.Verdict.Failures {
			t.Errorf("%s: %s", r.File, f)
		}
	}
}

// TestFuzzSweepGreen runs a slice of the seeded sweep end to end: the
// registered backends must pass every oracle on every generated loop.
func TestFuzzSweepGreen(t *testing.T) {
	testutil.LeakCheck(t)
	if testing.Short() {
		t.Skip("short mode: the sweep schedules hundreds of cells")
	}
	rep, err := FuzzSweep(context.Background(), SweepOptions{Seeds: 25})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seeds != 25 {
		t.Errorf("judged %d seeds, want 25", rep.Seeds)
	}
	wantChecks := 25 * 3 * len(sched.Names())
	if rep.Checks != wantChecks {
		t.Errorf("ran %d checks, want %d", rep.Checks, wantChecks)
	}
	for _, f := range rep.Failures {
		for _, ff := range f.Failures {
			t.Errorf("seed %d: %s", f.Seed, ff)
		}
	}
}

// TestVerdictDeterminism pins the acceptance property that a seed's
// verdict is a pure function of the seed: same loops, same judgments,
// regardless of worker count.
func TestVerdictDeterminism(t *testing.T) {
	testutil.LeakCheck(t)
	for _, seed := range []int64{3, 26, 41} {
		spec := fuzzgen.SweepSpec(seed)
		a, err := CheckLoop(context.Background(), spec, FuzzOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := CheckLoop(context.Background(), spec, FuzzOptions{Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := verdictKey(a), verdictKey(b); got != want {
			t.Errorf("seed %d: verdict depends on parallelism:\n1 worker: %s\n8 workers: %s", seed, want, got)
		}
	}
}

func verdictKey(v *LoopVerdict) string {
	key := fmt.Sprintf("checks=%d explained=%d", v.Checks, v.Explained)
	for _, f := range v.Failures {
		key += fmt.Sprintf("|%s@%d:%s", f.Technique, f.FUs, f.Class)
	}
	return key
}

// TestCheckLoopClassifiesInjectedFaults drives the oracle with the
// fault plan firing on every compute: without an Explain hook every
// cell is a finding with the right class; with ExplainInjected the same
// run is fully explained — the contract chaos-mode fuzzing relies on.
func TestCheckLoopClassifiesInjectedFaults(t *testing.T) {
	testutil.LeakCheck(t)
	spec := fuzzgen.SweepSpec(5)
	opts := FuzzOptions{Machines: []int{4}, Techniques: []string{"grip", "post"}}

	faults.Enable(faults.NewPlan(
		faults.Rule{Site: faults.BatchCompute, Every: 2, Panic: "fuzz chaos schedule"},
		faults.Rule{Site: faults.BatchCompute, Every: 1, Err: ErrInjected},
	))
	defer faults.Disable()

	v, err := CheckLoop(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Failures) != 2 || v.Explained != 0 {
		t.Fatalf("want 2 unexplained failures, got %d (explained %d)", len(v.Failures), v.Explained)
	}
	for _, f := range v.Failures {
		if f.Class != FailError && f.Class != FailPanic {
			t.Errorf("injected fault classified as %s: %v", f.Class, f.Err)
		}
	}

	opts.Explain = ExplainInjected
	v, err = CheckLoop(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Failed() || v.Explained != 2 {
		t.Fatalf("with ExplainInjected: want 0 failures / 2 explained, got %d / %d",
			len(v.Failures), v.Explained)
	}
}

func TestExplainInjected(t *testing.T) {
	testutil.LeakCheck(t)
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("scheduler bug"), false},
		{fmt.Errorf("wrapped: %w", ErrInjected), true},
		{fmt.Errorf("wrapped: %w", ErrChaosCompute), true},
		{fmt.Errorf("wrapped: %w", ErrChaosIO), true},
		{&sched.PanicError{Key: "k", Value: "faults: injected panic at batch.compute: chaos"}, true},
		{&sched.PanicError{Key: "k", Value: "index out of range"}, false},
	}
	for _, c := range cases {
		if got := ExplainInjected(c.err); got != c.want {
			t.Errorf("ExplainInjected(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestMinimizeFailureShrinks wires the minimizer to the live oracle: a
// loop that "fails" on every cell (injected fault, Every: 1) must
// shrink to a single op while the class keeps reproducing.
func TestMinimizeFailureShrinks(t *testing.T) {
	testutil.LeakCheck(t)
	spec := fuzzgen.SweepSpec(9)
	faults.Enable(faults.NewPlan(
		faults.Rule{Site: faults.BatchCompute, Every: 1, Err: ErrInjected}))
	defer faults.Disable()

	f := FuzzFailure{Technique: "grip", FUs: 2, Class: FailError}
	min, probes := MinimizeFailure(context.Background(), spec, f,
		FuzzOptions{Machines: []int{2}, Techniques: []string{"grip"}}, 500)
	if probes == 0 {
		t.Fatal("minimizer never probed the oracle")
	}
	if len(min.Body) != 1 {
		t.Errorf("minimized to %d ops, want 1:\n%s", len(min.Body), min)
	}
	if err := min.Validate(); err != nil {
		t.Errorf("minimized spec invalid: %v", err)
	}
}
