package graph

import (
	"fmt"

	"repro/internal/ir"
)

// Validate checks every structural invariant of the graph: tree shape,
// ownership pointers, operation locations, predecessor edge counts, and
// the single-definition-per-path rule of VLIW instructions. It returns
// the first violation found. Tests call Validate after every
// transformation.
func (g *Graph) Validate() error {
	if g.Entry == nil {
		return fmt.Errorf("graph: nil entry")
	}
	if !g.nodes[g.Entry] {
		return fmt.Errorf("graph: entry n%d not registered", g.Entry.ID)
	}

	recount := map[*Node]map[*Node]int{}     // successor -> predecessor -> edges
	succRecount := map[*Node]map[*Node]int{} // predecessor -> successor -> edges
	seenOps := map[*ir.Op]*Vertex{}

	for n := range g.nodes {
		if n.Root == nil {
			return fmt.Errorf("n%d: nil root", n.ID)
		}
		if n.Root.parent != nil {
			return fmt.Errorf("n%d: root has parent", n.ID)
		}
		var err error
		var walk func(v *Vertex)
		walk = func(v *Vertex) {
			if err != nil {
				return
			}
			if v.node != n {
				err = fmt.Errorf("n%d: vertex owned by wrong node", n.ID)
				return
			}
			for _, op := range v.Ops {
				if op == nil {
					err = fmt.Errorf("n%d: nil op", n.ID)
					return
				}
				if op.IsBranch() {
					err = fmt.Errorf("n%d: branch op %v in op list", n.ID, op)
					return
				}
				if prev, dup := seenOps[op]; dup {
					err = fmt.Errorf("n%d: op %v placed twice (also n%d)", n.ID, op, prev.node.ID)
					return
				}
				seenOps[op] = v
				if g.loc(op) != v {
					err = fmt.Errorf("n%d: op %v location out of sync", n.ID, op)
					return
				}
			}
			if v.IsLeaf() {
				if v.True != nil || v.False != nil {
					err = fmt.Errorf("n%d: leaf with children", n.ID)
					return
				}
				if v.Succ != nil {
					if !g.nodes[v.Succ] {
						err = fmt.Errorf("n%d: edge to deleted node n%d", n.ID, v.Succ.ID)
						return
					}
					m := recount[v.Succ]
					if m == nil {
						m = map[*Node]int{}
						recount[v.Succ] = m
					}
					m[n]++
					sm := succRecount[n]
					if sm == nil {
						sm = map[*Node]int{}
						succRecount[n] = sm
					}
					sm[v.Succ]++
				}
				return
			}
			if !v.CJ.IsBranch() {
				err = fmt.Errorf("n%d: non-branch op %v in CJ slot", n.ID, v.CJ)
				return
			}
			if prev, dup := seenOps[v.CJ]; dup {
				err = fmt.Errorf("n%d: branch %v placed twice (also n%d)", n.ID, v.CJ, prev.node.ID)
				return
			}
			seenOps[v.CJ] = v
			if g.loc(v.CJ) != v {
				err = fmt.Errorf("n%d: branch %v location out of sync", n.ID, v.CJ)
				return
			}
			if v.True == nil || v.False == nil {
				err = fmt.Errorf("n%d: branch vertex missing children", n.ID)
				return
			}
			if v.True.parent != v || v.False.parent != v {
				err = fmt.Errorf("n%d: child parent pointer wrong", n.ID)
				return
			}
			walk(v.True)
			walk(v.False)
		}
		walk(n.Root)
		if err != nil {
			return err
		}
		if got := n.recountOps(); got != n.OpCount() {
			return fmt.Errorf("n%d: cached op count %d, recount %d", n.ID, n.OpCount(), got)
		}
		if got := n.recountBranches(); got != n.BranchCount() {
			return fmt.Errorf("n%d: cached branch count %d, recount %d", n.ID, n.BranchCount(), got)
		}
		gotIters := n.recountSched()
		for i, c := range n.iterCounts {
			if c < 0 {
				return fmt.Errorf("n%d: negative count %d for iteration %d", n.ID, c, i-1)
			}
			if c != gotIters[i] {
				return fmt.Errorf("n%d: cached iter %d count %d, recount %d", n.ID, i-1, c, gotIters[i])
			}
		}
		for i, c := range gotIters {
			if c != 0 && (i >= len(n.iterCounts) || n.iterCounts[i] != c) {
				return fmt.Errorf("n%d: iteration %d holds %d schedulable ops, cache missed them", n.ID, i-1, c)
			}
		}
		if err := checkSingleDefPerPath(n); err != nil {
			return err
		}
		if err := checkSummaries(n); err != nil {
			return err
		}
	}

	// Census: numPlaced counts every setLoc not undone by clearLoc. The
	// walk above matched each tree op to its slot, so a registration no
	// tree holds (a slot left pointing into this graph) is a mismatch.
	if len(seenOps) != g.numPlaced {
		return fmt.Errorf("graph: numPlaced %d, live trees hold %d", g.numPlaced, len(seenOps))
	}

	// The incremental adjacency sets must match a full edge recount, in
	// both directions (same pattern as the op-count cross-check).
	for n := range g.nodes {
		if err := checkEdgeSet(g, n, &n.preds, recount[n], "pred"); err != nil {
			return err
		}
		if err := checkEdgeSet(g, n, &n.succs, succRecount[n], "succ"); err != nil {
			return err
		}
	}
	return nil
}

// checkEdgeSet cross-checks one node's incremental adjacency set
// against the edge multiset rebuilt from the leaf walk.
func checkEdgeSet(g *Graph, n *Node, s *edgeSet, want map[*Node]int, dir string) error {
	got := map[*Node]int{}
	err := error(nil)
	s.visit(func(m *Node, c int32) bool {
		if c <= 0 {
			err = fmt.Errorf("n%d: %s entry for n%d with count %d", n.ID, dir, m.ID, c)
			return false
		}
		if !g.nodes[m] {
			err = fmt.Errorf("n%d: %s entry for deleted node n%d", n.ID, dir, m.ID)
			return false
		}
		if _, dup := got[m]; dup {
			err = fmt.Errorf("n%d: duplicate %s entry for n%d", n.ID, dir, m.ID)
			return false
		}
		got[m] = int(c)
		return true
	})
	if err != nil {
		return err
	}
	for m, c := range want {
		if got[m] != c {
			return fmt.Errorf("n%d: %s count for n%d = %d, want %d", n.ID, dir, m.ID, got[m], c)
		}
	}
	for m, c := range got {
		if want[m] != c {
			return fmt.Errorf("n%d: stale %s count for n%d = %d, want %d", n.ID, dir, m.ID, c, want[m])
		}
	}
	return nil
}

// checkSummaries cross-checks every vertex's incremental def/use
// summary against a from-scratch recomputation: the own tier against
// the vertex's op list, the sub tier against own ∪ children, and the
// pre tier against parent's pre ∪ own (own alone at the root). Any
// mutation path that forgets to resummarize — including operand
// rewrites bypassing Graph.ReplaceUse/RetargetDef — surfaces here,
// so every randomized test calling Validate inherits the invariant
// the ps fast-path filters depend on.
func checkSummaries(n *Node) error {
	var check func(v *Vertex, pre *summary) (*summary, error)
	check = func(v *Vertex, pre *summary) (*summary, error) {
		want := &summary{}
		for _, op := range v.Ops {
			want.addOp(op)
		}
		if v.CJ != nil {
			want.addOp(v.CJ)
		}
		if !want.ownDefs.Equal(&v.sum.ownDefs) || !want.ownUses.Equal(&v.sum.ownUses) ||
			want.ownLoads != v.sum.ownLoads {
			return nil, fmt.Errorf("n%d: vertex own def/use summary out of sync", n.ID)
		}
		for i, op := range v.Ops {
			want.indexOp(op, int32(i))
		}
		if len(want.defSites) != len(v.sum.defSites) || len(want.storePos) != len(v.sum.storePos) {
			return nil, fmt.Errorf("n%d: vertex def/store site index out of sync", n.ID)
		}
		for i, e := range want.defSites {
			if v.sum.defSites[i] != e {
				return nil, fmt.Errorf("n%d: vertex def-site index out of sync at r%d", n.ID, e.reg)
			}
		}
		for i, k := range want.storePos {
			if v.sum.storePos[i] != k {
				return nil, fmt.Errorf("n%d: vertex store-site index out of sync", n.ID)
			}
		}
		if pre != nil {
			want.preDefs.CopyFrom(&pre.preDefs)
			want.preStores = pre.preStores
		}
		want.preDefs.Or(&want.ownDefs)
		want.preStores += int32(len(want.storePos))
		if !want.preDefs.Equal(&v.sum.preDefs) || want.preStores != v.sum.preStores {
			return nil, fmt.Errorf("n%d: vertex path-prefix summary out of sync", n.ID)
		}
		want.subDefs.CopyFrom(&want.ownDefs)
		want.subUses.CopyFrom(&want.ownUses)
		want.subLoads = want.ownLoads
		if !v.IsLeaf() {
			for _, c := range [2]*Vertex{v.True, v.False} {
				cw, err := check(c, want)
				if err != nil {
					return nil, err
				}
				want.subDefs.Or(&cw.subDefs)
				want.subUses.Or(&cw.subUses)
				want.subLoads += cw.subLoads
			}
		}
		if !want.subDefs.Equal(&v.sum.subDefs) || !want.subUses.Equal(&v.sum.subUses) ||
			want.subLoads != v.sum.subLoads {
			return nil, fmt.Errorf("n%d: vertex subtree def/use summary out of sync", n.ID)
		}
		return want, nil
	}
	_, err := check(n.Root, nil)
	return err
}

// checkSingleDefPerPath enforces that no root-to-leaf path of the
// instruction tree commits two writes to the same register: IBM VLIW
// stores all results along the selected path at once, so a double write
// would be ambiguous hardware-wise.
func checkSingleDefPerPath(n *Node) error {
	var defs []ir.Reg
	var walk func(v *Vertex) error
	walk = func(v *Vertex) error {
		mark := len(defs)
		for _, op := range v.Ops {
			if d := op.Def(); d != ir.NoReg {
				for _, prev := range defs {
					if prev == d {
						return fmt.Errorf("n%d: register r%d defined twice on one path", n.ID, d)
					}
				}
				defs = append(defs, d)
			}
		}
		if !v.IsLeaf() {
			if err := walk(v.True); err != nil {
				return err
			}
			if err := walk(v.False); err != nil {
				return err
			}
		}
		defs = defs[:mark]
		return nil
	}
	return walk(n.Root)
}
