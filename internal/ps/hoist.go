package ps

import (
	"fmt"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
)

// TryHoist attempts to move op one vertex up inside its instruction
// tree, past the conditional jump at the parent vertex. This is
// speculation: afterwards the op's result commits even when the branch
// takes the other side. It is legal when
//
//   - the op is not a store (stores are irreversible; the paper's GRiP
//     "always allows speculative scheduling" of recoverable operations,
//     and loads, arithmetic and division are all recoverable here —
//     division by zero is defined as 0 by the simulator);
//   - no operation on the sibling subtree defines the same register
//     (double commit on one path); and
//   - the op's target register is dead along the sibling side: nothing
//     reachable through the sibling's leaves reads it before a kill, and
//     it is not observable at program exit. (Write-live condition.)
func (c *Ctx) TryHoist(op *ir.Op, commit bool) Block {
	if op.Frozen {
		return Block{Kind: BlockFrozen}
	}
	if op.IsBranch() {
		panic("ps: TryHoist on branch")
	}
	v := c.G.Where(op)
	if v == nil {
		panic("ps: unplaced op")
	}
	n := v.Node()
	if v == n.Root {
		return Block{Kind: BlockStructure}
	}
	parent := v.Parent()
	if op.IsStore() {
		return Block{Kind: BlockDep, By: parent.CJ}
	}
	d := op.Def()
	sib := v.Sibling()

	// Double definition on a newly shared path: the sibling subtree or
	// the root path above the parent already commits d. The sibling walk
	// is filtered by its subtree def summary — exact here, since op
	// itself never sits under the sibling: a miss proves no definition,
	// a hit guarantees findDef identifies the blocker.
	if d != ir.NoReg && sib.SubtreeDefines(d) {
		if blk := findDef(sib, d, op); blk.Kind != BlockNone {
			return blk
		}
	} else if c.CrossCheck {
		if blk := findDef(sib, d, op); blk.Kind != BlockNone {
			panic(fmt.Sprintf("ps: summary filter missed a sibling definition of r%d hoisting %v", d, op))
		}
	}
	// The root path above the parent: one O(1) path-prefix probe replaces
	// the whole ancestor walk. Exact here — op sits at v, below parent,
	// so it contributes nothing to parent's prefix: a miss proves no
	// ancestor op defines d; a hit resolves the blocker directly through
	// the def-site index of the one ancestor whose own tier holds d.
	if d != ir.NoReg && parent.PathDefines(d) {
		for a := parent; a != nil; a = a.Parent() {
			if !a.DefinesHere(d) {
				continue
			}
			if p, _ := a.DefSiteHere(d); p != nil && p != op {
				return Block{Kind: BlockDep, By: p}
			}
		}
	} else if c.CrossCheck && d != ir.NoReg {
		for a := parent; a != nil; a = a.Parent() {
			for _, p := range a.Ops {
				if p != op && p.Def() == d {
					panic(fmt.Sprintf("ps: path-prefix filter missed an ancestor definition of r%d hoisting %v", d, op))
				}
			}
		}
	}

	// Write-live on the sibling side.
	if deps.LiveOnSubtree(c.G, sib, d, c.ExitLive) {
		if c.CrossCheck && !deps.LiveOnSubtreeReference(c.G, sib, d, c.ExitLive) {
			panic(fmt.Sprintf("ps: summary liveness diverged (live) for r%d hoisting %v", d, op))
		}
		return Block{Kind: BlockDep}
	}
	if c.CrossCheck && deps.LiveOnSubtreeReference(c.G, sib, d, c.ExitLive) {
		panic(fmt.Sprintf("ps: summary liveness diverged (dead) for r%d hoisting %v", d, op))
	}

	if !commit {
		return blockNone
	}
	c.G.HoistOp(op)
	c.Hoists++
	return blockNone
}

func findDef(v *graph.Vertex, d ir.Reg, except *ir.Op) Block {
	if d == ir.NoReg {
		return blockNone
	}
	for _, p := range v.Ops {
		if p != except && p.Def() == d {
			return Block{Kind: BlockDep, By: p}
		}
	}
	if v.IsLeaf() {
		return blockNone
	}
	if blk := findDef(v.True, d, except); blk.Kind != BlockNone {
		return blk
	}
	return findDef(v.False, d, except)
}
