package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/livermore"
	"repro/internal/sched"
	"repro/internal/sched/batch"
)

// TestTable1ShapeProperties reproduces Table 1 and asserts the paper's
// qualitative claims: GRiP converges everywhere, is never materially
// worse than POST, is essentially optimal (against the analytic bound)
// at 2 and 4 functional units, and speedups grow with the machine.
func TestTable1ShapeProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("full table in -short mode")
	}
	tbl, err := RunTable1(livermore.All(), []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	gi, pi := tbl.Col("grip"), tbl.Col("post")
	if gi < 0 || pi < 0 {
		t.Fatalf("Table 1 misses grip/post columns: %v", tbl.Techniques)
	}
	losses := 0
	for li, name := range tbl.Names {
		prev := 0.0
		for fi, f := range tbl.FUs {
			c := tbl.Cells[li][fi]
			grip, post := c.Stats[gi], c.Stats[pi]
			if !grip.Converged {
				t.Errorf("%s @%dFU: GRiP did not converge", name, f)
			}
			// Paper: "In all cases GRiP performs no worse than POST."
			// Our reconstruction of POST (the paper gives one sentence
			// of description) occasionally edges out our GRiP; allow a
			// few such cells but never a large loss, and require the
			// aggregate claim below. EXPERIMENTS.md discusses the
			// deviating cells.
			if grip.Speedup < post.Speedup*0.99 {
				losses++
				if grip.Speedup < post.Speedup*0.70 {
					t.Errorf("%s @%dFU: GRiP %.2f far below POST %.2f", name, f, grip.Speedup, post.Speedup)
				}
			}
			if grip.Speedup < prev-0.01 {
				t.Errorf("%s: speedup decreased from %.2f to %.2f at %dFU", name, prev, grip.Speedup, f)
			}
			prev = grip.Speedup
			// Near-optimality at 2 and 4 FUs, against the analytic
			// pre-optimization bound (redundancy removal can exceed it).
			if f <= 4 && grip.Speedup < 0.85*c.Bound {
				t.Errorf("%s @%dFU: GRiP %.2f well below bound %.2f", name, f, grip.Speedup, c.Bound)
			}
		}
	}
	if losses > 4 {
		t.Errorf("GRiP lost to POST in %d cells; paper says never", losses)
	}
	for fi := range tbl.FUs {
		if tbl.MeanRow[fi].Stats[gi].Speedup < tbl.MeanRow[fi].Stats[pi].Speedup-0.01 {
			t.Errorf("mean @%dFU: GRiP %.2f < POST %.2f", tbl.FUs[fi],
				tbl.MeanRow[fi].Stats[gi].Speedup, tbl.MeanRow[fi].Stats[pi].Speedup)
		}
	}
	out := tbl.Format()
	for _, want := range []string{"LL1", "LL14", "Mean", "WHM", "GRiP", "POST"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, "LL3,4,grip,") || !strings.Contains(csv, "LL3,4,post,") {
		t.Errorf("CSV missing expected rows")
	}
}

// table1Digest pins sched.AlgorithmVersion to the schedules it names:
// the SHA-256 of the version followed by the 84 paper-default Table 1
// cells' Metrics, one JSON line each in job order.
const table1Digest = "360b2848fdbc6ec1275ce973f798f0a2eb305aab84ffabd4bc1012f2d2764b1f"

// TestAlgorithmVersionPinsTable1 fails whenever a paper-default cell's
// Metrics change, until sched.AlgorithmVersion and table1Digest are
// bumped together. The version joins every cache key, so the bump is
// what keeps an existing -cache-dir from serving the old schedules.
func TestAlgorithmVersionPinsTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full table in -short mode")
	}
	_, outs, err := RunTable1Ctx(context.Background(), livermore.All(), []int{2, 4, 8}, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 84 {
		t.Fatalf("Table 1 has %d cells, want 84", len(outs))
	}
	h := sha256.New()
	fmt.Fprintf(h, "algorithm %d\n", sched.AlgorithmVersion)
	for _, o := range outs {
		line, err := json.Marshal(o.Result.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(line, '\n'))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != table1Digest {
		t.Fatalf("Table 1 digest at algorithm version %d is %s, want %s.\n"+
			"A schedule changed: bump sched.AlgorithmVersion and set table1Digest to the new digest.",
			sched.AlgorithmVersion, got, table1Digest)
	}
}

// TestParallelTableBitIdentical runs a Table 1 slice with four workers
// and then sequentially, with a fresh result cache for each run, and
// requires every cell to be bit-identical — the acceptance criterion
// for moving the harness onto the batch engine. The parallel pass runs
// first so that (on a fresh test binary, e.g. CI's -short -race run)
// POST phase-1 results are computed by concurrent workers rather than
// replayed from the process-global phase-1 memo, which result caches
// cannot isolate.
func TestParallelTableBitIdentical(t *testing.T) {
	kernels := []*livermore.Kernel{
		livermore.ByName("LL1"), livermore.ByName("LL3"), livermore.ByName("LL5"),
	}
	fus := []int{2, 4}
	par, _, err := RunTable1Ctx(context.Background(), kernels, fus,
		batch.Options{Parallelism: 4, Cache: batch.NewCache(64)})
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := RunTable1Ctx(context.Background(), kernels, fus,
		batch.Options{Parallelism: 1, Cache: batch.NewCache(64)})
	if err != nil {
		t.Fatal(err)
	}
	for li := range seq.Cells {
		for fi := range seq.Cells[li] {
			if !reflect.DeepEqual(seq.Cells[li][fi], par.Cells[li][fi]) {
				t.Errorf("%s @%dFU: sequential %+v != parallel %+v",
					seq.Names[li], fus[fi], seq.Cells[li][fi], par.Cells[li][fi])
			}
		}
	}
}

// TestSharedCacheMakesRerunsFree reruns a cell through the shared cache
// and requires the second pass to be all cache hits.
func TestSharedCacheMakesRerunsFree(t *testing.T) {
	kernels := []*livermore.Kernel{livermore.ByName("LL3")}
	cache := batch.NewCache(64)
	opts := batch.Options{Cache: cache}
	first, _, err := RunTable1Ctx(context.Background(), kernels, []int{2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, outs, err := RunTable1Ctx(context.Background(), kernels, []int{2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if !o.CacheHit {
			t.Errorf("%s %s: rerun missed the cache", o.Job.Technique, o.Job.DisplayName())
		}
	}
	second, _, err := RunTable1Ctx(context.Background(), kernels, []int{2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Cells[0][0], second.Cells[0][0]) {
		t.Errorf("cached cell differs: %+v != %+v", first.Cells[0][0], second.Cells[0][0])
	}
}

// TestTableNTechniques renders a four-technique table through the same
// layout the paper pair uses — no generic-matrix fallback.
func TestTableNTechniques(t *testing.T) {
	kernels := []*livermore.Kernel{livermore.ByName("LL3")}
	techniques := []string{"list", "modulo", "post", "grip"}
	tbl, outs, err := RunTable(context.Background(), kernels, []int{2, 4}, techniques,
		sched.Config{}, batch.Options{Cache: batch.NewCache(16)})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(kernels)*2*len(techniques) {
		t.Fatalf("got %d outcomes", len(outs))
	}
	if got := tbl.Techniques; !reflect.DeepEqual(got, techniques) {
		t.Errorf("table techniques %v, want %v", got, techniques)
	}
	c := tbl.Cells[0][0]
	if len(c.Stats) != 4 {
		t.Fatalf("cell has %d stats, want 4", len(c.Stats))
	}
	// The paper's ordering on a vectorizable loop: pipelining beats
	// compaction, integrated constraints beat the rest.
	li, gi := tbl.Col("list"), tbl.Col("grip")
	for fi := range tbl.FUs {
		c := tbl.Cells[0][fi]
		if c.Stats[gi].Speedup < c.Stats[li].Speedup-0.01 {
			t.Errorf("@%dFU: grip %.2f below list %.2f", tbl.FUs[fi], c.Stats[gi].Speedup, c.Stats[li].Speedup)
		}
	}
	out := tbl.Format()
	for _, want := range []string{"List", "Modulo", "POST", "GRiP", "LL3", "Mean", "WHM"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted N-technique table missing %q:\n%s", want, out)
		}
	}
	csv := tbl.CSV()
	for _, tech := range techniques {
		if !strings.Contains(csv, "LL3,2,"+tech+",") {
			t.Errorf("CSV missing technique row %q", tech)
		}
	}
}

// TestTableConfigSweepDistinctCells proves a table under a non-default
// configuration occupies its own cache entries: a second run of the
// same config is all hits, while the default-config run still misses.
func TestTableConfigSweepDistinctCells(t *testing.T) {
	kernels := []*livermore.Kernel{livermore.ByName("LL3")}
	cache := batch.NewCache(64)
	opts := batch.Options{Cache: cache}
	cfg := sched.Config{Unwind: 12}
	_, outs, err := RunTable(context.Background(), kernels, []int{2}, []string{"grip"}, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].CacheHit {
		t.Error("fresh configured run hit the cache")
	}
	_, outs, err = RunTable(context.Background(), kernels, []int{2}, []string{"grip"}, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].CacheHit {
		t.Error("identical configured rerun missed the cache")
	}
	_, outs, err = RunTable(context.Background(), kernels, []int{2}, []string{"grip"}, sched.Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].CacheHit {
		t.Error("default-config run shared the configured run's cache entry")
	}
}

// TestValidateSample proves semantic equivalence of the scheduled
// pipelines for a representative subset (the full sweep runs in the
// livermore and pipeline packages).
func TestValidateSample(t *testing.T) {
	for _, name := range []string{"LL1", "LL3", "LL5", "LL13"} {
		k := livermore.ByName(name)
		for _, f := range []int{2, 8} {
			if err := ValidateCell(k, f, sched.Config{}); err != nil {
				t.Errorf("%s @%dFU: %v", name, f, err)
			}
		}
	}
	// A configured schedule validates too — and it is the configured
	// schedule that gets validated, not the paper default.
	if err := ValidateCell(livermore.ByName("LL3"), 2, sched.Config{Unwind: 12}); err != nil {
		t.Errorf("LL3 @2FU unwind=12: %v", err)
	}
}
