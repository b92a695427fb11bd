package post

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// TestPhase1WorkCounters gates POST's phase-1 work on counters that do
// not depend on the hardware: LL7 at infinite width (the paper-default
// branch slot), fixed unwind 24 — the regime where the footprint-stamped
// memos carry the schedule. Picks and Moves pin the pick sequence to
// the one the version-keyed memos produced; GaplessEvals bounds how many
// Gapless-move verdicts are still derived in full (428,823 without the
// certificates). Deliberately not skipped under -short.
func TestPhase1WorkCounters(t *testing.T) {
	run := func() core.Stats {
		cfg := Phase1Config(pipeline.DefaultConfig(machine.New(2)))
		cfg.Unwind = 24
		res, err := pipeline.PerfectPipeline(context.Background(), livermore.ByName("LL7").Spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	st := run()
	t.Logf("LL7 phase 1 @ u=24: %+v", st)
	if st.Picks != 429399 || st.Moves != 5574 {
		t.Errorf("picks/moves = %d/%d, want 429399/5574: the pick sequence changed", st.Picks, st.Moves)
	}
	if st.GaplessEvals > 70000 {
		t.Errorf("GaplessEvals = %d, want <= 70000", st.GaplessEvals)
	}
	if again := run(); again != st {
		t.Errorf("counters differ between identical runs:\n%+v\n%+v", st, again)
	}
}
