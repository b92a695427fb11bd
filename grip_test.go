package grip

import (
	"context"
	"strings"
	"testing"
)

func dotLoop() *Loop {
	return &Loop{
		Name: "dot",
		Body: []BodyOp{
			Load("t1", Aff("Z", 1, 0)),
			Load("t2", Aff("X", 1, 0)),
			Mul("t3", "t1", "t2"),
			Add("q", "q", "t3"),
		},
		Step: 1, TripVar: "n",
		LiveIn: []string{"q"}, LiveOut: []string{"q"},
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	res, err := PerfectPipeline(dotLoop(), Machine(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Kernel == nil {
		t.Fatal("pipeline did not converge")
	}
	if res.Speedup < 3.5 {
		t.Fatalf("speedup %.2f", res.Speedup)
	}
	z := make([]int64, res.U+4)
	x := make([]int64, res.U+4)
	for i := range z {
		z[i], x[i] = int64(i+1), int64(2*i+1)
	}
	err = Validate(res, map[string]int64{"q": 3},
		map[string][]int64{"Z": z, "X": x}, []int64{1, int64(res.U)})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicBaselines(t *testing.T) {
	loop := dotLoop()
	m := Machine(4)
	p, err := Post(loop, m)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Modulo(loop, m)
	if err != nil {
		t.Fatal(err)
	}
	ls := ListSchedule(loop, m)
	g, err := PerfectPipeline(loop, m)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: pipelining beats compaction; integrated
	// resource constraints beat both local and post-pass approaches.
	if !(g.Speedup >= p.Speedup-0.01) {
		t.Errorf("GRiP %.2f < POST %.2f", g.Speedup, p.Speedup)
	}
	if !(g.Speedup >= mod.Speedup-0.01) {
		t.Errorf("GRiP %.2f < modulo %.2f", g.Speedup, mod.Speedup)
	}
	if !(mod.Speedup >= ls.Speedup-0.01) {
		t.Errorf("modulo %.2f < list %.2f", mod.Speedup, ls.Speedup)
	}
}

func TestPublicSimplePipeline(t *testing.T) {
	res, err := SimplePipeline(dotLoop(), Machine(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1 {
		t.Fatalf("simple pipelining speedup %.2f", res.Speedup)
	}
}

// TestPublicRegistryAndBatch drives the registry-facing facade: every
// listed technique schedules by name, the results match the dedicated
// entry points, and a batch run with a shared cache dedupes reruns.
func TestPublicRegistryAndBatch(t *testing.T) {
	names := Schedulers()
	if len(names) < 4 {
		t.Fatalf("Schedulers() = %v", names)
	}
	m := Machine(4)
	for _, name := range names {
		if _, ok := Scheduler(name); !ok {
			t.Fatalf("Scheduler(%q) not found", name)
		}
		res, err := Schedule(context.Background(), name, dotLoop(), m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Speedup <= 0 || res.Technique != name {
			t.Errorf("%s: bad result %+v", name, res)
		}
	}
	direct, err := PerfectPipeline(dotLoop(), m)
	if err != nil {
		t.Fatal(err)
	}
	byName, err := Schedule(context.Background(), "grip", dotLoop(), m)
	if err != nil {
		t.Fatal(err)
	}
	if byName.Speedup != direct.Speedup || byName.CyclesPerIter != direct.CyclesPerIter {
		t.Errorf("registry grip %.3f/%.3f != direct %.3f/%.3f",
			byName.Speedup, byName.CyclesPerIter, direct.Speedup, direct.CyclesPerIter)
	}

	cache := NewBatchCache(16)
	jobs := []BatchJob{
		{Technique: "grip", Spec: dotLoop(), Machine: Machine(2)},
		{Technique: "post", Spec: dotLoop(), Machine: Machine(2)},
	}
	outs, err := Batch(context.Background(), jobs, BatchOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	outs, err = Batch(context.Background(), jobs, BatchOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if tier := o.Tier.String(); tier != "memory" {
			t.Errorf("%s rerun served from %s, want the shared cache's memory tier", o.Job.Technique, tier)
		}
	}
}

func TestPublicConfigKnobs(t *testing.T) {
	cfg := DefaultConfig(Machine(2))
	cfg.Optimize = false
	cfg.Unwind = 12
	res, err := PerfectPipelineConfig(context.Background(), dotLoop(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 12 {
		t.Fatalf("unwind override ignored: U=%d", res.U)
	}
	if res.Unwound.Removed() != 0 {
		t.Fatal("optimization ran although disabled")
	}
	if !strings.Contains(InfiniteMachine().String(), "inf") {
		t.Fatal("infinite machine misreported")
	}
}
