package graph

import (
	"repro/internal/ir"
)

// Node is one VLIW instruction. The zero value is not usable; create
// nodes with Graph.NewNode.
type Node struct {
	ID   int
	Root *Vertex

	// Drain marks nodes on loop-exit paths produced by move-cj node
	// splitting. Drain nodes are executed by the simulator but never
	// rescheduled; they form Perfect Pipelining's post-loop code.
	Drain bool

	// pos is an order-maintenance key: main-chain nodes compare by pos
	// exactly as by chain order. Maintained by the Graph on insertion
	// so schedulers get O(1) "is this node below that one" tests
	// without recomputing traversal orders after every mutation.
	pos float64

	// opCount/branchCount cache the instruction tree's operation and
	// conditional-jump totals. Maintained by the Graph mutators (AddOp,
	// RemoveOp, InsertBranchAtLeaf, AdoptSubtree) so the schedulers'
	// per-step resource checks are O(1) instead of tree walks; Validate
	// cross-checks them against a recount.
	opCount     int
	branchCount int

	// iterCounts caches the schedulable (non-frozen) operation totals
	// per iteration (iterCounts[iter+1]; slot 0 holds NoIter ops).
	// Maintained by the same mutators, so the Gapless-move test's
	// IterCount query is an O(1) slice read instead of a tree walk;
	// Validate cross-checks it against a recount. See DESIGN.md.
	iterCounts []int32

	// preds/succs are the node's compact adjacency sets, maintained by
	// the Graph's link/unlink on every leaf-edge mutation and
	// cross-checked by Validate. They replace the graph-level
	// map[*Node]map[*Node]int predecessor table, making Preds,
	// SinglePred, and successor iteration allocation-free scans.
	preds edgeSet
	succs edgeSet

	// orderIdx/orderStamp cache the node's position in the graph's
	// reverse-postorder; valid when orderStamp matches the graph's
	// current order version (Graph.Index).
	orderIdx   int32
	orderStamp uint64

	// seenEpoch supports allocation-free graph traversals: a traversal
	// obtains a fresh epoch from Graph.BeginVisit and marks nodes with
	// Visited instead of building a map.
	seenEpoch uint64

	// g is the owning graph, set at creation and never changed. The
	// location fast path (Graph.loc) uses it to reject placements that
	// belong to a different graph — an op cloned into a new graph, or
	// queried against a graph it was never part of.
	g *Graph
}

// Pos returns the node's order-maintenance key. Larger means later on
// the main chain. Keys of drain nodes are not meaningful.
func (n *Node) Pos() float64 { return n.pos }

// Visited marks n as seen in traversal epoch e and reports whether it
// had already been marked. Epochs come from Graph.BeginVisit; a
// traversal must finish with one epoch before another begins.
func (n *Node) Visited(e uint64) bool {
	if n.seenEpoch == e {
		return true
	}
	n.seenEpoch = e
	return false
}

// Walk visits every vertex of the instruction tree in preorder.
func (n *Node) Walk(f func(*Vertex)) {
	if n.Root != nil {
		n.Root.walk(f)
	}
}

// Ops returns all non-branch operations in the instruction tree.
func (n *Node) Ops() []*ir.Op {
	var ops []*ir.Op
	n.Walk(func(v *Vertex) { ops = append(ops, v.Ops...) })
	return ops
}

// OpCount returns the number of non-branch operations in the tree; this
// is the number of functional units the instruction occupies. O(1): the
// count is maintained by the Graph mutators.
func (n *Node) OpCount() int { return n.opCount }

// BranchCount returns the number of conditional jumps in the tree. O(1).
func (n *Node) BranchCount() int { return n.branchCount }

// noteOpAdded updates the per-iteration schedulable counts for an op
// (branches included) just placed somewhere in n's tree.
func (n *Node) noteOpAdded(op *ir.Op) {
	if op.Frozen {
		return
	}
	n.bumpIter(op.Iter, 1)
}

// noteOpRemoved is the inverse of noteOpAdded.
func (n *Node) noteOpRemoved(op *ir.Op) {
	if op.Frozen {
		return
	}
	n.bumpIter(op.Iter, -1)
}

func (n *Node) bumpIter(iter int, d int32) {
	i := iter + 1 // slot 0 is NoIter
	if i < 0 {
		panic("graph: op with iteration below NoIter")
	}
	if i >= len(n.iterCounts) {
		// Geometric growth with a zeroed tail (Validate tolerates
		// trailing zero slots); nodes born after the graph has seen
		// this iteration are pre-sized past it (Graph.iterSlots), so
		// this is the cold path.
		c := 2 * len(n.iterCounts)
		if c < i+1 {
			c = i + 1
		}
		grown := make([]int32, c)
		copy(grown, n.iterCounts)
		n.iterCounts = grown
	}
	n.iterCounts[i] += d
	if n.iterCounts[i] < 0 {
		panic("graph: per-iteration op count underflow")
	}
}

// resetSchedCounts clears the per-iteration schedulable counts
// (AdoptSubtree recomputes them from the adopted tree).
func (n *Node) resetSchedCounts() {
	for i := range n.iterCounts {
		n.iterCounts[i] = 0
	}
}

// recountOps recomputes the operation total by walking the tree
// (Validate's cross-check of the cached count).
func (n *Node) recountOps() int {
	c := 0
	n.Walk(func(v *Vertex) { c += len(v.Ops) })
	return c
}

// recountBranches recomputes the conditional-jump total by walking.
func (n *Node) recountBranches() int {
	c := 0
	n.Walk(func(v *Vertex) {
		if v.CJ != nil {
			c++
		}
	})
	return c
}

// recountSched recomputes the per-iteration schedulable counts by
// walking, keyed exactly like iterCounts (Validate's cross-check of the
// incremental cache).
func (n *Node) recountSched() map[int]int32 {
	iters := map[int]int32{}
	count := func(o *ir.Op) {
		if !o.Frozen {
			iters[o.Iter+1]++
		}
	}
	n.Walk(func(v *Vertex) {
		for _, o := range v.Ops {
			count(o)
		}
		if v.CJ != nil {
			count(v.CJ)
		}
	})
	return iters
}

// Branches returns the conditional-jump ops in the tree, root first.
func (n *Node) Branches() []*ir.Op {
	var cjs []*ir.Op
	n.Walk(func(v *Vertex) {
		if v.CJ != nil {
			cjs = append(cjs, v.CJ)
		}
	})
	return cjs
}

// Leaves returns the leaf vertices of the tree, left (true side) first.
// Allocates; hot paths use VisitLeaves.
func (n *Node) Leaves() []*Vertex {
	var ls []*Vertex
	n.VisitLeaves(func(v *Vertex) bool {
		ls = append(ls, v)
		return true
	})
	return ls
}

// VisitLeaves visits the leaf vertices in left-first preorder (the same
// order Leaves uses), stopping early when f returns false. It reports
// whether the visit ran to completion. Allocation-free.
func (n *Node) VisitLeaves(f func(*Vertex) bool) bool {
	return visitLeaves(n.Root, f)
}

func visitLeaves(v *Vertex, f func(*Vertex) bool) bool {
	if v == nil {
		return true
	}
	if v.IsLeaf() {
		return f(v)
	}
	if !visitLeaves(v.True, f) {
		return false
	}
	return visitLeaves(v.False, f)
}

// LeafTo returns the first leaf (in left-first preorder, the same order
// Leaves uses) whose edge points at succ, or nil. Allocation-free — the
// per-step transformation scans sit on this query.
func (n *Node) LeafTo(succ *Node) *Vertex {
	return leafTo(n.Root, succ)
}

func leafTo(v *Vertex, succ *Node) *Vertex {
	if v == nil {
		return nil
	}
	if v.IsLeaf() {
		if v.Succ == succ {
			return v
		}
		return nil
	}
	if l := leafTo(v.True, succ); l != nil {
		return l
	}
	return leafTo(v.False, succ)
}

// Successors returns the distinct successor nodes in first-edge order,
// read off the compact adjacency set. Allocates the result slice; hot
// paths use VisitSuccessors or NonDrainSucc.
func (n *Node) Successors() []*Node {
	succs := make([]*Node, 0, n.succs.n)
	n.succs.visit(func(s *Node, _ int32) bool {
		succs = append(succs, s)
		return true
	})
	return succs
}

// VisitSuccessors calls f for every distinct successor node, stopping
// early when f returns false. Allocation-free: it iterates the compact
// adjacency set maintained on edge mutation.
func (n *Node) VisitSuccessors(f func(*Node) bool) {
	n.succs.visit(func(s *Node, _ int32) bool { return f(s) })
}

// NonDrainSucc returns the unique non-drain successor, or nil when the
// node has none or several (the main-chain step used by every
// scheduler's top-down traversal). O(successors), allocation-free.
func (n *Node) NonDrainSucc() *Node {
	var next *Node
	ambiguous := false
	n.succs.visit(func(s *Node, _ int32) bool {
		if s.Drain {
			return true
		}
		if next != nil {
			ambiguous = true
			return false
		}
		next = s
		return true
	})
	if ambiguous {
		return nil
	}
	return next
}

// Empty reports whether the instruction holds no operations and no
// branches (an empty node with a single fall-through edge can be spliced
// out of the graph).
func (n *Node) Empty() bool {
	return n.OpCount() == 0 && n.BranchCount() == 0
}

// IterCount returns how many schedulable (non-frozen) operations from
// iteration iter are scheduled in this instruction (branches included);
// the Gapless-move test sits on it. O(1): the per-iteration counts are
// maintained incrementally by the Graph mutators.
func (n *Node) IterCount(iter int) int {
	if i := iter + 1; i >= 0 && i < len(n.iterCounts) {
		return int(n.iterCounts[i])
	}
	return 0
}

// FallThrough returns the single successor when the node has exactly one
// leaf, else nil. O(1): a tree with b branch vertices has b+1 leaves, so
// a single-leaf node is exactly a branch-free node whose root is the
// leaf.
func (n *Node) FallThrough() *Node {
	if n.branchCount == 0 && n.Root != nil {
		return n.Root.Succ
	}
	return nil
}
