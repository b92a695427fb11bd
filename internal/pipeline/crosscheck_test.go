package pipeline

import (
	"context"
	"testing"

	"repro/internal/ir"
	"repro/internal/livermore"
	"repro/internal/machine"
)

// TestPipelineCrossCheck runs full pipelining — unwinding, migration
// with node splits and drain cloning, gap-prevention suspensions, and
// renaming compensations — with the scheduler's retained reference scan
// verifying every pick of the incremental candidate structure and its
// invariants. Any divergence surfaces as a scheduling error.
//
// The infinite-width cases are where the footprint-stamped memos hit
// most (the bounded ones rarely replay a failed move probe): under
// CrossCheck every replayed verdict is re-derived in full and a
// mismatch fails the schedule. LL14 is there because its run replays a
// Gapless-move certificate whose only changed input is an op leaving a
// footprint node — the case a missing touch in RemoveOp gets wrong.
func TestPipelineCrossCheck(t *testing.T) {
	inf := machine.Infinite().WithBranchSlots(1)
	cases := []struct {
		name     string
		spec     *ir.LoopSpec
		m        machine.Machine
		u        int
		gap, ren bool
	}{
		{"dot-gap", dotLoop(), machine.New(4), 12, true, false},
		{"dot-renaming", dotLoop(), machine.New(4), 12, true, true},
		{"fig-gap", figExample(), machine.New(4), 12, true, false},
		{"fig-nogap", figExample(), machine.New(4), 12, false, false},
		{"dot-gap-inf-u12", dotLoop(), inf, 12, true, false},
		{"dot-gap-inf-u24", dotLoop(), inf, 24, true, false},
		{"fig-gap-inf-u12", figExample(), inf, 12, true, false},
		{"fig-gap-inf-u24", figExample(), inf, 24, true, false},
		{"LL14-gap-inf-u12", livermore.ByName("LL14").Spec, inf, 12, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.m)
			cfg.GapPrevention = tc.gap
			cfg.Renaming = tc.ren
			cfg.Unwind = tc.u
			cfg.CrossCheck = true
			res, err := PerfectPipeline(context.Background(), tc.spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Unwound.G.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
