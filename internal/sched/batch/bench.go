package batch

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/machine"
	"repro/internal/sched"
)

// BenchCell records one job's performance for the benchmark trajectory
// (BENCH_table1.json): what was scheduled, what it achieved, and what
// it cost in wall time.
type BenchCell struct {
	Loop      string `json:"loop"`
	FUs       int    `json:"fus"`
	Technique string `json:"technique"`
	// Config is the job's configuration fingerprint, empty for the
	// paper default — so reports written before configurations existed
	// compare cleanly against today's default cells, while sweep cells
	// carry their identity and never collide across factors.
	Config    string  `json:"config,omitempty"`
	Speedup   float64 `json:"speedup"`
	Converged bool    `json:"converged"`
	WallMS    float64 `json:"wall_ms"`
	// CacheHit and Tier both derive from Outcome.Tier: Tier names the
	// store tier that served a cache hit ("memory" or "disk"), empty
	// for computed cells and for reports written before the store was
	// tiered.
	CacheHit bool   `json:"cache_hit"`
	Tier     string `json:"tier,omitempty"`
	Error    string `json:"error,omitempty"`
}

// BenchReport is the JSON document future PRs compare against.
type BenchReport struct {
	Parallelism int         `json:"parallelism"`
	TotalWallMS float64     `json:"total_wall_ms"`
	Cells       []BenchCell `json:"cells"`
}

// NewBenchReport summarizes a batch run. totalWall is the end-to-end
// wall time of the run (which, under parallelism, is less than the sum
// of the per-cell times).
func NewBenchReport(outcomes []Outcome, parallelism int, totalWall time.Duration) BenchReport {
	rep := BenchReport{
		Parallelism: parallelism,
		TotalWallMS: float64(totalWall.Microseconds()) / 1000,
	}
	for _, o := range outcomes {
		cell := BenchCell{
			Loop:      o.Job.DisplayName(),
			Technique: o.Job.Technique,
			WallMS:    float64(o.Wall.Microseconds()) / 1000,
			CacheHit:  o.Tier != TierCompute,
		}
		if cell.CacheHit {
			cell.Tier = o.Tier.String()
		}
		if o.Job.Config != (sched.Config{}) {
			cell.Config = o.Job.Config.Fingerprint()
		}
		if o.Job.Machine.OpSlots != machine.Unlimited {
			cell.FUs = o.Job.Machine.OpSlots
		}
		if o.Result != nil {
			cell.Speedup = o.Result.Speedup
			cell.Converged = o.Result.Converged
		}
		if o.Err != nil {
			cell.Error = o.Err.Error()
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep
}

// WriteJSON renders the report, indented for diffability.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
