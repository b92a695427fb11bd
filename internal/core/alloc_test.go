package core

import (
	"context"
	"testing"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/ps"
)

// TestMigrationStepAllocs pins the tentpole guarantee: a steady-state
// GRiP migration step — choosing the next op against the bitset state
// and moving it one edge — allocates nothing. The test warms one
// up-and-back move cycle so vertex op slices reach their steady
// capacity, then measures.
func TestMigrationStepAllocs(t *testing.T) {
	al := ir.NewAlloc()
	g := graph.New(al)
	// Target node holds a resident op (so it never empties), source node
	// holds the migrating op plus a resident (so it is never spliced).
	resident1 := &ir.Op{ID: al.OpID(), Origin: 0, Iter: 0, Kind: ir.Const, Dst: al.Reg("a"), Imm: 1}
	mover := &ir.Op{ID: al.OpID(), Origin: 1, Iter: 0, Kind: ir.Const, Dst: al.Reg("b"), Imm: 2}
	resident2 := &ir.Op{ID: al.OpID(), Origin: 2, Iter: 0, Kind: ir.Const, Dst: al.Reg("c"), Imm: 3}
	n1 := graph.AppendOp(g, nil, resident1)
	n2 := graph.AppendOp(g, n1, mover)
	g.AddOp(resident2, n2.Root)

	ops := []*ir.Op{resident1, mover, resident2}
	ddg := deps.Build(ops)
	pctx := ps.NewCtx(g, machine.New(4), nil)
	pctx.D = ddg
	s := newScheduler(context.Background(), pctx, ops, deps.NewPriority(ddg), Options{MaxSteps: DefaultMaxSteps})

	home := n2.Root
	step := func() {
		s.bumpGen()
		op := s.chooseOp(n1, true, true)
		if op != mover {
			t.Fatalf("chooseOp picked %v, want the mover", op)
		}
		s.markTried(op)
		s.migrate(n1, op)
		if g.NodeOf(mover) != n1 {
			t.Fatal("mover did not arrive")
		}
		g.MoveOp(mover, home) // reset for the next round
	}
	for i := 0; i < 16; i++ {
		step() // warm slice capacities
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("migration step allocates %v bytes/run, want 0", allocs)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGaplessProbeAllocs pins the tentpole guarantee of the walk-free
// gapless search: a steady-state Gapless-move probe — per-iteration
// count gates, the max-Pos frontier, condition-4 filler scan with
// canFill dependence probes, and both memo layers — performs zero heap
// allocations. Each round bumps the graph version with a same-vertex
// MoveOp so the full evaluation (not just the memo hit) is measured.
func TestGaplessProbeAllocs(t *testing.T) {
	pctx, s, ops := buildIterChain(48, 8, 4)
	g := pctx.G
	op := ops[2*46+1]
	from := g.NodeOf(op)
	home := g.Where(op)
	if !s.gaplessMove(from, op) {
		t.Fatal("scenario: probe should succeed via condition 4")
	}
	probe := func() {
		g.MoveOp(op, home) // new generation: memos and frontiers recompute
		if !s.gaplessMove(from, op) {
			t.Fatal("probe failed")
		}
	}
	for i := 0; i < 16; i++ {
		probe() // warm memo map and slice capacities
	}
	if allocs := testing.AllocsPerRun(200, probe); allocs != 0 {
		t.Fatalf("gapless probe allocates %v/run, want 0", allocs)
	}
	// Memo-hit steady state (no invalidation) must also be free.
	if allocs := testing.AllocsPerRun(200, func() { s.gaplessMove(from, op) }); allocs != 0 {
		t.Fatalf("memoized gapless probe allocates %v/run, want 0", allocs)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGraphAccessorAllocs guards the O(1) accessors the gapless path
// reads per probe: per-iteration schedulable counts, compact
// successor/predecessor queries, and the leaf visits.
func TestGraphAccessorAllocs(t *testing.T) {
	pctx, _, ops := buildIterChain(8, 4, 4)
	g := pctx.G
	n := g.NodeOf(ops[4])
	var sink int
	allocs := testing.AllocsPerRun(500, func() {
		sink = n.IterCount(2)
		n.VisitSuccessors(func(s *graph.Node) bool { sink++; return true })
		if s := n.NonDrainSucc(); s != nil {
			sink++
		}
		if p := g.SinglePred(n); p != nil {
			sink++
		}
		if f := n.FallThrough(); f != nil {
			sink++
		}
		n.VisitLeaves(func(v *graph.Vertex) bool { sink++; return true })
	})
	if allocs != 0 {
		t.Fatalf("graph accessors allocate %v/run, want 0 (sink %d)", allocs, sink)
	}
}

// TestChooseOpScanAllocs: the candidate-structure pick with suspension
// and tried state in play is allocation-free — including the
// maintenance a pick performs (markTried removal, generation-bump
// restore, suspension bookkeeping).
func TestChooseOpScanAllocs(t *testing.T) {
	pctx, ops, pri := buildStraightLine(64, 2)
	s := newScheduler(context.Background(), pctx, ops, pri, Options{MaxSteps: DefaultMaxSteps})
	entry := pctx.G.Entry
	s.bumpGen()
	s.suspendOp(ops[40])
	s.markUnmoveable(ops[50])
	var sink *ir.Op
	allocs := testing.AllocsPerRun(500, func() {
		sink = s.chooseOp(entry, true, true)
		s.markTried(sink)
		s.bumpGen()
	})
	if allocs != 0 {
		t.Fatalf("chooseOp pick path allocates %v bytes/run, want 0", allocs)
	}
	if sink == nil {
		t.Fatal("chooseOp found nothing")
	}
}
