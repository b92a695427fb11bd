package deps

import (
	"repro/internal/graph"
	"repro/internal/ir"
)

// LiveAtEntry reports whether register r may be read before being
// overwritten on some execution path starting at node n (inclusive).
// exitLive lists registers observable at program exit.
//
// Reads inside an instruction happen at instruction entry (parallel
// fetch), so any use of r anywhere in a node's tree makes r live at that
// node's entry. A definition kills r only when it commits on every path
// through the node, i.e. when the defining operation sits at the root
// vertex. Both tests are O(1) reads of the node's def/use summary — the
// chain walk over successors remains, but no node's tree is ever
// re-walked op by op.
func LiveAtEntry(g *graph.Graph, n *graph.Node, r ir.Reg, exitLive map[ir.Reg]bool) bool {
	if r == ir.NoReg {
		return false
	}
	// Epoch marks instead of a per-call seen map, and VisitLeaves
	// instead of the allocating Leaves slice: this query runs inside the
	// schedulers' hoist-legality probes, which must not allocate.
	return liveAtEntry(g, n, r, exitLive, g.BeginVisit())
}

func liveAtEntry(g *graph.Graph, m *graph.Node, r ir.Reg, exitLive map[ir.Reg]bool, epoch uint64) bool {
	if m == nil {
		return exitLive[r]
	}
	if m.Visited(epoch) {
		return false
	}
	if m.Root.SubtreeReads(r) {
		return true
	}
	if m.Root.DefinesHere(r) {
		// Root-vertex commit: kills r on every path through m.
		return false
	}
	live := false
	m.VisitLeaves(func(l *graph.Vertex) bool {
		if liveAtEntry(g, l.Succ, r, exitLive, epoch) {
			live = true
			return false
		}
		return true
	})
	return live
}

// LiveAtEntryReference is the retained op-by-op implementation of
// LiveAtEntry: it recomputes each node's used/killed facts by walking the
// instruction tree instead of reading the maintained summary. Kept as
// the cross-check oracle (ps runs it next to the summary version under
// CrossCheck) and as the executable definition of the liveness rule.
func LiveAtEntryReference(g *graph.Graph, n *graph.Node, r ir.Reg, exitLive map[ir.Reg]bool) bool {
	if r == ir.NoReg {
		return false
	}
	return liveAtEntryReference(g, n, r, exitLive, g.BeginVisit())
}

func liveAtEntryReference(g *graph.Graph, m *graph.Node, r ir.Reg, exitLive map[ir.Reg]bool, epoch uint64) bool {
	if m == nil {
		return exitLive[r]
	}
	if m.Visited(epoch) {
		return false
	}
	used := false
	killed := false
	m.Walk(func(v *graph.Vertex) {
		for _, op := range v.Ops {
			if op.ReadsReg(r) {
				used = true
			}
			if op.Def() == r && v == m.Root {
				killed = true
			}
		}
		if v.CJ != nil && v.CJ.ReadsReg(r) {
			used = true
		}
	})
	if used {
		return true
	}
	if killed {
		return false
	}
	live := false
	m.VisitLeaves(func(l *graph.Vertex) bool {
		if liveAtEntryReference(g, l.Succ, r, exitLive, epoch) {
			live = true
			return false
		}
		return true
	})
	return live
}

// LiveOnSubtree reports whether register r is observable when control
// flows through the instruction subtree rooted at v: either some
// downstream node (reached from a leaf under v) may read r before
// killing it, or the program exits under v with r in exitLive. Uses
// *inside* the node fetch at entry and are unaffected by commits, so
// only downstream liveness matters. This is the write-live test for
// speculative hoisting past a branch.
func LiveOnSubtree(g *graph.Graph, v *graph.Vertex, r ir.Reg, exitLive map[ir.Reg]bool) bool {
	if r == ir.NoReg {
		return false
	}
	return liveOnSubtree(g, v, r, exitLive, LiveAtEntry)
}

// LiveOnSubtreeReference is LiveOnSubtree over the reference (walking)
// per-node liveness; the cross-check oracle for the write-live test.
func LiveOnSubtreeReference(g *graph.Graph, v *graph.Vertex, r ir.Reg, exitLive map[ir.Reg]bool) bool {
	if r == ir.NoReg {
		return false
	}
	return liveOnSubtree(g, v, r, exitLive, LiveAtEntryReference)
}

func liveOnSubtree(g *graph.Graph, w *graph.Vertex, r ir.Reg, exitLive map[ir.Reg]bool,
	atEntry func(*graph.Graph, *graph.Node, ir.Reg, map[ir.Reg]bool) bool) bool {
	if w.IsLeaf() {
		if w.Succ == nil {
			return exitLive[r]
		}
		return atEntry(g, w.Succ, r, exitLive)
	}
	return liveOnSubtree(g, w.True, r, exitLive, atEntry) ||
		liveOnSubtree(g, w.False, r, exitLive, atEntry)
}
