package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/ps"
)

// maxGaplessDepth bounds the condition-4 recursion. The paper notes the
// search "is likely to be very localized"; the bound is a safety valve,
// and exceeding it conservatively reports "might gap" (suspension).
const maxGaplessDepth = 64

// memoEntry is one generation-stamped cache slot for a probe verdict.
// The stamp is the graph mutation counter (graph.Version): probes never
// mutate the graph, so every verdict computed at one version stays
// exact until the next committed transformation bumps it. See DESIGN.md
// for the invalidation contract. Packed ver<<2 | verdict into one word
// — a struct with a separate int8 verdict pads to 16 bytes, doubling
// the footprint of the full-width fillMemo rows. The zero value means
// "unknown"; stored entries always carry a nonzero verdict.
type memoEntry uint64

func makeMemoEntry(ver uint64, holds bool) memoEntry {
	e := memoEntry(ver<<2) | 2 // verdict 2 = fails
	if holds {
		e = memoEntry(ver<<2) | 1 // verdict 1 = holds
	}
	return e
}

func (e memoEntry) ver() uint64 { return uint64(e) >> 2 }
func (e memoEntry) holds() bool { return uint64(e)&3 == 1 }

// gaplessMove is the section 3.3 Gapless-move(From, To, Op) test: it
// reports whether moving op up out of node from can be done without
// creating a permanent gap in op's iteration. Conditions, in the paper's
// order:
//
//  1. op is the only operation scheduled at from — the node is deleted
//     by the move, so no row can gap;
//  2. another operation from op's iteration stays at from;
//  3. op is the last operation of its iteration at or below from;
//  4. some successor S of from holds an operation X of the same
//     iteration that would be moveable from S into from once op has
//     left, and Gapless-move(S, from, X) holds recursively — the
//     temporary gap op leaves is certain to be fillable.
func (s *scheduler) gaplessMove(from *graph.Node, op *ir.Op) bool {
	var fp footprint
	ok, _ := s.gapless(from, op, 0, &fp)
	return ok
}

// gapless returns the Gapless-move verdict for op leaving its home node
// from, plus whether the verdict is exact. A false obtained only
// because the recursion budget ran out is inexact: a shallower entry
// point could still prove the move gapless, so such verdicts are never
// memoized. True verdicts and budget-untouched false verdicts are
// depth-independent. A true verdict whose proof read at most fpCap
// nodes, all recorded, is certified by their stamps (see footprint.go)
// and outlives every mutation elsewhere; the rest cache under the
// current graph version. Either memo stops the recursive search from
// re-proving the same (node, op) subproblem — from is always op's home,
// so the op index alone keys them. On a true verdict fp holds the
// proof's footprint, broken when it is unknown.
func (s *scheduler) gapless(from *graph.Node, op *ir.Op, depth int, fp *footprint) (bool, bool) {
	if depth > maxGaplessDepth {
		return false, false
	}
	g := s.ctx.G
	idx := op.Index
	memoable := idx >= 0 && idx < len(s.memo) && g.NodeOf(op) == from
	if memoable {
		if s.certified(from, op, depth) {
			*fp = s.memo[idx].cert.fp
			if s.opts.CrossCheck {
				var ref footprint
				if ok, _ := s.gaplessEval(from, op, depth, &ref); !ok {
					s.fail(fmt.Errorf("core: gapless certificate replayed true for %v at n%d, evaluation says false", op, from.ID))
				}
			}
			return true, true
		}
		if e := s.memo[idx].gap; e != 0 && e.ver() == g.Version() {
			fp.broken = true
			return e.holds(), true
		}
	}
	ok, exact := s.gaplessEval(from, op, depth, fp)
	if memoable {
		if ok && !fp.broken {
			s.certify(op, fp)
		} else if exact || ok {
			s.memo[idx].gap = makeMemoEntry(g.Version(), ok)
		}
	}
	return ok, exact || ok
}

// gaplessEval evaluates the four conditions in full, recording in fp
// the nodes the deciding condition read.
func (s *scheduler) gaplessEval(from *graph.Node, op *ir.Op, depth int, fp *footprint) (bool, bool) {
	s.stats.GaplessEvals++
	*fp = footprint{}
	fp.add(from)
	// Condition 1.
	if from.OpCount()+from.BranchCount() == 1 {
		return true, true
	}
	// Condition 2.
	if from.IterCount(op.Iter) >= 2 {
		return true, true
	}
	// Condition 3.
	if s.isLastOfIter(from, op) {
		fp.iter = true
		return true, true
	}
	// Condition 4.
	found, exact := false, true
	from.VisitSuccessors(func(succ *graph.Node) bool {
		if succ.Drain {
			return true
		}
		ok, ex := s.findFiller(succ, op, depth, fp)
		if ok {
			found = true
			return false
		}
		if !ex {
			exact = false
		}
		return true
	})
	return found, exact || found
}

// findFiller looks in succ for an op X of op's iteration that can fill
// the gap op would leave behind. Instead of walking succ's instruction
// tree it scans the per-iteration op list behind an O(1) IterCount gate
// — the gapless search is localized, and an iteration holds only a
// body's worth of operations. Returns (found, exact) like gapless; on
// success it extends fp with the proof's reads.
func (s *scheduler) findFiller(succ *graph.Node, op *ir.Op, depth int, fp *footprint) (bool, bool) {
	if succ.IterCount(op.Iter) == 0 {
		return false, true
	}
	g := s.ctx.G
	exact := true
	var sub footprint
	for _, x := range s.byIter[op.Iter+1] {
		if x == op || x.Frozen || g.NodeOf(x) != succ {
			continue
		}
		if !s.canFill(x, op) {
			continue
		}
		ok, ex := s.gapless(succ, x, depth+1, &sub)
		if ok {
			s.extendProof(fp, succ, x, &sub)
			return true, true
		}
		if !ex {
			exact = false
		}
	}
	return false, exact
}

// extendProof adds a condition-4 step to fp: filler x at succ proved
// the gap fillable. canFill read succ and its single predecessor — the
// gap's node, already fp.nodes[0], since a move-op probe succeeds only
// into a sole predecessor and fp's node has an edge to succ — but only
// when x sits at succ's root and is not a branch; a hoist or move-cj
// probe reads more, so such a step breaks the footprint. x's own proof
// contributes its footprint.
func (s *scheduler) extendProof(fp *footprint, succ *graph.Node, x *ir.Op, sub *footprint) {
	if sub.broken || x.IsBranch() || s.ctx.G.Where(x) != succ.Root {
		fp.broken = true
		return
	}
	fp.add(succ)
	for _, nd := range sub.nodes[:sub.n] {
		fp.add(nd)
	}
	fp.iter = fp.iter || sub.iter
	fp.height = sub.height + 1
}

// canFill reports whether x could move one node up, assuming `leaving`
// has already vacated the target. Verdicts are memoized per (x,
// leaving) pair under the current graph version: one migration step
// probes the same pairs many times through the condition-4 recursion.
func (s *scheduler) canFill(x, leaving *ir.Op) bool {
	g := s.ctx.G
	memoable := uint(x.Index) < uint(len(s.fillMemo)) &&
		uint(leaving.Index) < uint(len(s.fillMemo))
	var row []memoEntry
	if memoable {
		if row = s.fillMemo[x.Index]; row == nil {
			row = s.allocMemoRow(len(s.fillMemo))
			s.fillMemo[x.Index] = row
		}
		if e := row[leaving.Index]; e != 0 && e.ver() == g.Version() {
			return e.holds()
		}
	}
	ok := s.canFillEval(x, leaving)
	if memoable {
		row[leaving.Index] = makeMemoEntry(g.Version(), ok)
	}
	return ok
}

// canFillEval is the uncached probe. An x buried under a branch inside
// its node is treated as fillable when it can hoist (it will surface
// and then move); this slight optimism is documented in DESIGN.md.
func (s *scheduler) canFillEval(x, leaving *ir.Op) bool {
	if x.IsBranch() {
		return s.ctx.TryMoveCJUp(x, false).Kind == ps.BlockNone
	}
	v := s.ctx.G.Where(x)
	if v != v.Node().Root {
		return s.ctx.TryHoist(x, false).Kind == ps.BlockNone
	}
	return s.ctx.TryMoveOpUp(x, false, leaving).Kind == ps.BlockNone
}

// iterFrontier caches, per iteration, the two highest node positions
// holding schedulable ops of that iteration (with the op attaining the
// maximum), stamped by graph version. Recomputed at most once per
// iteration per graph mutation; every further isLastOfIter probe in the
// condition-4 recursion is O(1).
//
// homes is separate from that cache: it counts the home changes of the
// iteration's ops (opHomed), and is the stamp condition-3 certificates
// read (footprint.go), so recomputing the frontier keeps it.
type iterFrontier struct {
	ver   uint64
	n     int     // schedulable ops of the iteration in non-drain nodes
	op1   *ir.Op  // an op attaining max1
	max1  float64 // highest home position
	max2  float64 // highest home position over ops other than op1
	homes uint32
}

func (s *scheduler) frontier(iter int) *iterFrontier {
	f := &s.frontiers[iter+1]
	g := s.ctx.G
	if f.ver == g.Version() {
		return f
	}
	*f = iterFrontier{ver: g.Version(), homes: f.homes}
	for _, op := range s.byIter[iter+1] {
		if op.Frozen {
			continue
		}
		home := g.NodeOf(op)
		if home == nil || home.Drain {
			continue
		}
		p := home.Pos()
		f.n++
		switch {
		case f.op1 == nil:
			f.op1, f.max1 = op, p
		case p > f.max1:
			f.max2 = f.max1
			f.op1, f.max1 = op, p
		case f.n == 2 || p > f.max2:
			f.max2 = p
		}
	}
	return f
}

// isLastOfIter reports whether no schedulable operation of op's
// iteration exists strictly below from. Main-chain nodes are totally
// ordered by their position keys, so the cached per-iteration max-Pos
// frontier answers this in O(1) amortized instead of O(body) per probe.
func (s *scheduler) isLastOfIter(from *graph.Node, op *ir.Op) bool {
	f := s.frontier(op.Iter)
	if f.n == 0 || (f.n == 1 && f.op1 == op) {
		return true
	}
	m := f.max1
	if f.op1 == op {
		m = f.max2
	}
	return m <= from.Pos()
}
