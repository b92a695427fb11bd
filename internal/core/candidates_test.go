package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/ps"
)

// buildRandomChain builds a main chain of nNodes nodes, each holding one
// to three operations with roughly one branch op in five, and returns a
// scheduler over it with the reference scan retained (CrossCheck).
func buildRandomChain(rng *rand.Rand, nNodes int) (*scheduler, []*graph.Node, []*ir.Op) {
	al := ir.NewAlloc()
	g := graph.New(al)
	var ops []*ir.Op
	var tail *graph.Node
	origin := 0
	mk := func() *ir.Op {
		op := &ir.Op{ID: al.OpID(), Origin: origin, Iter: 0, Kind: ir.Const,
			Dst: al.Reg(fmt.Sprintf("r%d", origin)), Imm: int64(origin)}
		origin++
		ops = append(ops, op)
		return op
	}
	for j := 0; j < nNodes; j++ {
		tail = graph.AppendOp(g, tail, mk())
		for k := rng.Intn(3); k > 0; k-- {
			g.AddOp(mk(), tail.Root)
		}
	}
	// Grow a loop-exit-style branch on roughly every third node: the
	// conditional jump falls through to the chain successor, so the
	// branch-class selector sees real candidates (branches never move in
	// this driver — migration moves them only via the CJ machinery).
	chain := g.MainChain()
	for j, n := range chain {
		if rng.Intn(3) != 0 {
			continue
		}
		var next *graph.Node
		if j+1 < len(chain) {
			next = chain[j+1]
		}
		cj := &ir.Op{ID: al.OpID(), Origin: origin, Iter: 0, Kind: ir.CJ,
			Src: [2]ir.Reg{al.Reg(fmt.Sprintf("c%d", origin))}, Imm: 10, BImm: true, Rel: ir.Lt}
		origin++
		ops = append(ops, cj)
		leaf := n.Leaves()[0]
		g.RetargetLeaf(leaf, nil)
		g.InsertBranchAtLeaf(leaf, cj, nil, next)
	}
	ddg := deps.Build(ops)
	pctx := ps.NewCtx(g, machine.New(4), nil)
	pctx.D = ddg
	s := newScheduler(context.Background(), pctx, ops, deps.NewPriority(ddg),
		Options{MaxSteps: DefaultMaxSteps, CrossCheck: true})
	return s, g.MainChain(), ops
}

// TestCandidatesRandomMutations drives thousands of random mutation
// sequences — picks under random room gates, upward op moves, frozen
// drain clones, suspensions and unsuspensions, unmoveable marks,
// tried-generation bumps, and frontier advances — against schedulers
// with the reference scan retained, asserting after every pick that the
// incremental candidate structure returns the identical op, that the
// incremental rule-3 bound matches a rescan, and that the structure
// invariants (checkCandidates) and the graph's own cached-state
// invariants (graph.Validate) hold.
//
// The mutation grammar mirrors the scheduler's real event structure:
// operations only move upward (toward smaller positions), the frontier
// only advances, and the graph does not mutate while suspensions are
// live — rule 2 guarantees exactly that, and both the incremental
// rule-3 bound and the rule-3 resume cursors rely on it.
func TestCandidatesRandomMutations(t *testing.T) {
	sequences := 400
	steps := 250
	if testing.Short() {
		sequences = 60
	}
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		s, chain, ops := buildRandomChain(rng, 4+rng.Intn(12))
		g := s.ctx.G
		s.bumpGen() // scheduleNode opens every node with a fresh generation
		fi := 0
		pick := func() {
			n := chain[fi]
			opRoom, brRoom := rng.Intn(2) == 0, rng.Intn(2) == 0
			if !opRoom && !brRoom {
				opRoom = true
			}
			got := s.chooseOp(n, opRoom, brRoom)
			if err := s.crossCheckPick(n, opRoom, brRoom, got); err != nil {
				if got != nil {
					inRef := false
					for _, o := range s.refRanked {
						if o == got {
							inRef = true
						}
					}
					home := g.NodeOf(got)
					t.Logf("got: idx=%d frozen=%v inRef=%v pruned=%v susp=%v tried=%v home=%v limit=%v susps=%d",
						got.Index, got.Frozen, inRef, s.pruned.Has(got.Index), s.suspended.Has(got.Index),
						s.tried[got.Index] == s.gen, home, n.Pos(), len(s.suspList))
					if home != nil {
						t.Logf("got home pos=%v drain=%v", home.Pos(), home.Drain)
					}
				}
				t.Fatalf("seq %d: %v", seq, err)
			}
			if got != nil && rng.Intn(4) > 0 {
				s.markTried(got)
			}
		}
		for step := 0; step < steps; step++ {
			op := ops[rng.Intn(len(ops))]
			suspActive := len(s.suspList) > 0
			action := rng.Intn(10)
			if err := s.checkCandidates(); err != nil {
				t.Fatalf("seq %d step %d (before action %d): %v", seq, step, action, err)
			}
			switch action {
			case 0, 1, 2, 3:
				pick()
			case 4: // upward move: the only direction migration takes
				if suspActive || op.IsBranch() {
					pick()
					break
				}
				home := g.NodeOf(op)
				if home == nil || home.OpCount() <= 1 {
					break
				}
				hi := 0
				for hi < len(chain) && chain[hi] != home {
					hi++
				}
				if hi == 0 || hi >= len(chain) {
					break
				}
				g.MoveOp(op, chain[rng.Intn(hi)].Root)
			case 5: // a frozen clone enters through AddOp at a fresh drain node (move-cj's drain path)
				if suspActive || op.IsBranch() || g.NodeOf(op) == nil {
					break
				}
				drain := g.NewNode()
				drain.Drain = true
				g.AddOp(op.Clone(g.Alloc.OpID(), true), drain.Root)
			case 6:
				if !s.suspended.Has(op.Index) && g.NodeOf(op) != nil {
					s.suspendOp(op)
				}
			case 7:
				if suspActive {
					s.clearSuspensions()
				} else {
					s.bumpGen()
				}
			case 8:
				s.markUnmoveable(op)
			case 9: // frontier advance (between-node: suspensions cleared first)
				if fi+1 < len(chain) {
					if suspActive {
						s.clearSuspensions()
					}
					fi++
					s.bumpGen()
				}
			}
		}
		if err := s.checkCandidates(); err != nil {
			t.Fatalf("seq %d: final: %v", seq, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seq %d: final: %v", seq, err)
		}
	}
}

// TestScheduleCrossCheck runs full schedules — the real event stream of
// migrations, node splits, suspensions, and renaming — with the
// reference scan cross-checking every pick.
func TestScheduleCrossCheck(t *testing.T) {
	for _, fus := range []int{2, 4} {
		ctx, ops, pri := buildStraightLine(48, fus)
		if _, err := Schedule(context.Background(), ctx, ops, pri,
			Options{CrossCheck: true}); err != nil {
			t.Fatalf("fus=%d: %v", fus, err)
		}
		if err := ctx.G.Validate(); err != nil {
			t.Fatalf("fus=%d: %v", fus, err)
		}
	}
	// Gap prevention on an interleaved-iteration chain drives the
	// suspension machinery (rules 1–3) through the cross-checked path.
	pctx, s, _ := buildIterChain(32, 8, 2)
	pctx.G.SetOpHomeHook(s.prevHook) // discard the helper's scheduler
	ops := make([]*ir.Op, 0, len(s.pool))
	ops = append(ops, s.pool...)
	if _, err := Schedule(context.Background(), pctx, ops, s.pri,
		Options{GapPrevention: true, CrossCheck: true}); err != nil {
		t.Fatal(err)
	}
	if err := pctx.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkChooseOp measures the incremental pick with its per-pick
// maintenance (markTried removal, generation bump restore) over a large
// Moveable set — the operation the old implementation performed as a
// full ranked rescan.
func BenchmarkChooseOp(b *testing.B) {
	bench := func(b *testing.B, suspend bool) {
		pctx, ops, pri := buildStraightLine(2048, 8)
		s := newScheduler(context.Background(), pctx, ops, pri, Options{MaxSteps: DefaultMaxSteps})
		entry := pctx.G.Entry
		s.bumpGen()
		if suspend {
			s.suspendOp(ops[64])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := s.chooseOp(entry, true, true)
			if op == nil {
				s.bumpGen()
				continue
			}
			s.markTried(op)
		}
	}
	// steady: every pick returns the first selector member.
	b.Run("steady", func(b *testing.B) { bench(b, false) })
	// suspended: rule 3 gates the picks; the resume cursors amortize the
	// skip over the suspension epoch.
	b.Run("suspended", func(b *testing.B) { bench(b, true) })
}
