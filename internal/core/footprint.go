package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/ps"
)

// Footprint-stamped verdict memos.
//
// The graph-version memos (memoEntry) forget everything at each
// committed move, yet most verdicts read only a node or two the move
// never touched. At infinite width that is the whole cost: every retry
// generation re-admits the ops tried in the last one, and each is
// re-probed against nodes that did not change. The memos below key a
// verdict instead on the touch stamps (graph.Node.Stamp) of exactly the
// nodes it read — its footprint — so it survives every mutation
// elsewhere. A hit replays the verdict a full evaluation would derive;
// DESIGN.md §2.3 argues why, per memo.

// fpCap bounds the nodes a certified Gapless-move proof may read. A
// longer proof is not certified; the version memo still serves it.
const fpCap = 4

// footprint lists the nodes a true Gapless-move verdict read while it
// was derived (nodes[0] is the mover's home), plus whether it read the
// iteration's op-home stamp (condition 3 decided some step). broken
// marks a proof with an unrecorded read: it cannot be certified.
type footprint struct {
	nodes  [fpCap]*graph.Node
	n      uint8
	height uint8 // condition-4 levels the proof spans; 0 for conditions 1–3
	iter   bool
	broken bool
}

// add records a read of node nd; past fpCap distinct nodes the
// footprint breaks.
func (f *footprint) add(nd *graph.Node) {
	for _, m := range f.nodes[:f.n] {
		if m == nd {
			return
		}
	}
	if int(f.n) == fpCap {
		f.broken = true
		return
	}
	f.nodes[f.n] = nd
	f.n++
}

// opMemo is the scheduler's per-op memo record, indexed by op index:
// the version-stamped Gapless-move verdict (DESIGN.md §2.2) and the two
// footprint-stamped verdicts.
type opMemo struct {
	gap  memoEntry
	cert gapCert
	move moveMemo
}

// gapCert is a certified true Gapless-move verdict: the proof's
// footprint with the stamps its nodes (and, when read, the iteration)
// carried when it was derived. The zero value certifies nothing.
type gapCert struct {
	fp        footprint
	stamps    [fpCap]uint32
	iterStamp uint32
}

// certify records fp, a true verdict's unbroken footprint for op, at
// the current stamps.
func (s *scheduler) certify(op *ir.Op, fp *footprint) {
	c := &s.memo[op.Index].cert
	c.fp = *fp
	for i, nd := range fp.nodes[:fp.n] {
		c.stamps[i] = nd.Stamp()
	}
	c.iterStamp = s.frontiers[op.Iter+1].homes
}

// certified reports whether op's certificate proves its move out of
// from gapless now: same home, no footprint node or read iteration
// touched since, and the proof fits the recursion budget left at depth
// (so the hit answers exactly what a fresh search from here would).
func (s *scheduler) certified(from *graph.Node, op *ir.Op, depth int) bool {
	c := &s.memo[op.Index].cert
	f := &c.fp
	if f.n == 0 || f.nodes[0] != from || depth+int(f.height) > maxGaplessDepth {
		return false
	}
	for i, nd := range f.nodes[:f.n] {
		if nd.Stamp() != c.stamps[i] {
			return false
		}
	}
	return !f.iter || s.frontiers[op.Iter+1].homes == c.iterStamp
}

// opHomed is the graph's op-home hook for a scheduling run: it advances
// the op's iteration stamp — condition 3 reads the homes of every op of
// the iteration, and positions of occupied nodes never change, so a
// home change is the only event that can alter its answer — and keeps
// the candidate structure current.
func (s *scheduler) opHomed(op *ir.Op) {
	if i := op.Iter + 1; i >= 0 && i < len(s.frontiers) {
		s.frontiers[i].homes++
	}
	s.maybeAdd(op)
}

// moveMemo is a failed commit-mode move-op probe of one op at the root
// of home: the verdict plus the stamps of the only two nodes the probe
// read — home (the mover's operands, the move-past-read scan) and its
// single predecessor (the target leaf's committed path and its width).
type moveMemo struct {
	home, pred           *graph.Node
	homeStamp, predStamp uint32
	blk                  ps.Block
}

// moveOpUp runs migrate's move-op probe for op, a non-branch at the
// root of home, serving failures from the memo while home and its
// predecessor are untouched. A failed probe commits nothing, so its
// replay is exact; the caller's recordBlock still runs live on the
// result.
func (s *scheduler) moveOpUp(home *graph.Node, op *ir.Op) ps.Block {
	m := &s.memo[op.Index].move
	if m.home == home && m.homeStamp == home.Stamp() && (m.pred == nil || m.predStamp == m.pred.Stamp()) {
		if s.opts.CrossCheck {
			if got := s.ctx.TryMoveOpUp(op, false, nil); got != m.blk {
				s.fail(fmt.Errorf("core: move memo replayed %v by %v for %v at n%d, probe says %v by %v",
					m.blk.Kind, m.blk.By, op, home.ID, got.Kind, got.By))
			}
		}
		return m.blk
	}
	s.stats.MoveProbeEvals++
	blk := s.ctx.TryMoveOpUp(op, true, nil)
	if blk.Kind != ps.BlockNone {
		*m = moveMemo{home: home, homeStamp: home.Stamp(), blk: blk}
		if m.pred = s.ctx.G.SinglePred(home); m.pred != nil {
			m.predStamp = m.pred.Stamp()
		}
	}
	return blk
}

// fail records the first CrossCheck divergence; scheduleNode returns it
// after the migration that found it.
func (s *scheduler) fail(err error) {
	if s.checkErr == nil {
		s.checkErr = err
	}
}
