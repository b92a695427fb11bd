package graph

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
)

// nodeState renders everything a node's touch stamp covers: liveness,
// position, incoming edges, and the instruction tree with every op (its
// operands included) and every leaf successor.
func nodeState(g *Graph, n *Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "live=%v pos=%v preds=", g.Has(n), n.pos)
	n.preds.visit(func(p *Node, c int32) bool {
		fmt.Fprintf(&b, "n%d*%d,", p.ID, c)
		return true
	})
	var walk func(v *Vertex)
	walk = func(v *Vertex) {
		b.WriteString("[")
		for _, op := range v.Ops {
			b.WriteString(op.String() + ";")
		}
		switch {
		case !v.IsLeaf():
			b.WriteString(v.CJ.String())
			walk(v.True)
			walk(v.False)
		case v.Succ != nil:
			fmt.Fprintf(&b, "->n%d", v.Succ.ID)
		default:
			b.WriteString("->exit")
		}
		b.WriteString("]")
	}
	if n.Root != nil {
		walk(n.Root)
	}
	return b.String()
}

// TestMutatorsTouchChangedNodes pins the touch-stamp contract the
// schedulers' footprint memos rely on: every exported mutator changes
// the stamp of every node whose tree, ops, operands, edges or position
// it changed — deleted nodes included — and leaves a created node with
// a nonzero stamp. Each case also names the nodes the contract singles
// out, so a blind spot in nodeState cannot hide a missing touch.
func TestMutatorsTouchChangedNodes(t *testing.T) {
	cases := []struct {
		name string
		// run prepares the fixture and returns the mutation under test
		// with the nodes it must touch.
		run func(g *Graph, ns []*Node, ops []*ir.Op) (func(), []*Node)
	}{
		{"RetargetLeaf", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			// n2 -> n3 becomes n2 -> n4: the old and the new successor
			// change their incoming edges.
			return func() { g.RetargetLeaf(ContinueLeaf(ns[1]), ns[3]) }, []*Node{ns[1], ns[2], ns[3]}
		}},
		{"RetargetLeafToExit", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			return func() { g.RetargetLeaf(ContinueLeaf(ns[1]), nil) }, []*Node{ns[1], ns[2]}
		}},
		{"AddOp", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			d := freshOp(g)
			return func() { g.AddOp(d, ns[3].Root) }, []*Node{ns[3]}
		}},
		{"RemoveOp", func(g *Graph, ns []*Node, ops []*ir.Op) (func(), []*Node) {
			return func() { g.RemoveOp(ops[0]) }, []*Node{ns[0]}
		}},
		{"MoveOp", func(g *Graph, ns []*Node, ops []*ir.Op) (func(), []*Node) {
			return func() { g.MoveOp(ops[3], ContinueLeaf(ns[2])) }, []*Node{ns[2], ns[3]}
		}},
		{"HoistOp", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			d := freshOp(g)
			g.AddOp(d, ContinueLeaf(ns[2]))
			return func() { g.HoistOp(d) }, []*Node{ns[2]}
		}},
		{"InsertBranchAtLeaf", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			cj := freshCJ(g)
			return func() { g.InsertBranchAtLeaf(ContinueLeaf(ns[3]), cj, nil, ns[4]) }, []*Node{ns[3], ns[4]}
		}},
		{"InsertBranchAtLeafToExits", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			// No edge changes: only the tree does.
			cj := freshCJ(g)
			return func() { g.InsertBranchAtLeaf(ContinueLeaf(ns[3]), cj, nil, nil) }, []*Node{ns[3]}
		}},
		{"DetachBranchRoot", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			g.RetargetLeaf(ContinueLeaf(ns[1]), nil)
			return func() { g.DetachBranchRoot(ns[2]) }, []*Node{ns[2], ns[3], ns[4]}
		}},
		{"AdoptSubtree", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			g.RetargetLeaf(ContinueLeaf(ns[1]), nil)
			_, _, tSub, _ := g.DetachBranchRoot(ns[2])
			nn := g.NewNode()
			return func() { g.AdoptSubtree(nn, tSub) }, []*Node{nn, ns[3]}
		}},
		{"DetachBranchRootExits", func(g *Graph, _ []*Node, _ []*ir.Op) (func(), []*Node) {
			nb := isolatedBranch(g)
			return func() { g.DetachBranchRoot(nb) }, []*Node{nb}
		}},
		{"AdoptSubtreeExits", func(g *Graph, _ []*Node, _ []*ir.Op) (func(), []*Node) {
			nb := isolatedBranch(g)
			_, _, tSub, _ := g.DetachBranchRoot(nb)
			nn := g.NewNode()
			return func() { g.AdoptSubtree(nn, tSub) }, []*Node{nn}
		}},
		{"SpliceOutEmpty", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			e := g.InsertBefore(ns[1])
			// The preds and the succ of the spliced node, and the node.
			return func() { g.SpliceOutEmpty(e) }, []*Node{ns[0], e, ns[1]}
		}},
		{"SpliceOutEmptyIsolated", func(g *Graph, _ []*Node, _ []*ir.Op) (func(), []*Node) {
			e := g.NewNode()
			return func() { g.SpliceOutEmpty(e) }, []*Node{e}
		}},
		{"InsertBefore", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			return func() { g.InsertBefore(ns[1]) }, []*Node{ns[0], ns[1]}
		}},
		{"InsertBeforeEntry", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			return func() { g.InsertBefore(ns[0]) }, []*Node{ns[0]}
		}},
		{"ReplaceUse", func(g *Graph, ns []*Node, ops []*ir.Op) (func(), []*Node) {
			to := g.Alloc.Reg("z")
			return func() { g.ReplaceUse(ops[1], ops[0].Dst, to) }, []*Node{ns[1]}
		}},
		{"RetargetDef", func(g *Graph, ns []*Node, ops []*ir.Op) (func(), []*Node) {
			r := g.Alloc.Reg("z")
			return func() { g.RetargetDef(ops[3], r) }, []*Node{ns[3]}
		}},
		{"NewNode", func(g *Graph, _ []*Node, _ []*ir.Op) (func(), []*Node) {
			return func() { g.NewNode() }, nil
		}},
		{"SetPos", func(g *Graph, _ []*Node, _ []*ir.Op) (func(), []*Node) {
			fresh := g.NewNode()
			return func() { g.SetPos(fresh, 0.5) }, []*Node{fresh}
		}},
		{"PlaceBetween", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			fresh := g.NewNode()
			return func() { g.PlaceBetween(fresh, ns[0], ns[1]) }, []*Node{fresh}
		}},
		{"AppendOp", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			d := freshOp(g)
			return func() { AppendOp(g, ns[3], d) }, []*Node{ns[3]}
		}},
		{"AppendBranch", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			cj := freshCJ(g)
			return func() { AppendBranch(g, ns[3], cj, ns[4]) }, []*Node{ns[3], ns[4]}
		}},
		{"AppendEmpty", func(g *Graph, ns []*Node, _ []*ir.Op) (func(), []*Node) {
			return func() { AppendEmpty(g, ns[3]) }, []*Node{ns[3]}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, ns, ops := buildChain(t)
			mutate, want := tc.run(g, ns, ops)
			type snap struct {
				state string
				stamp uint32
			}
			before := map[*Node]snap{}
			for n := range g.nodes {
				before[n] = snap{nodeState(g, n), n.Stamp()}
			}
			mutate()
			for n, s := range before {
				if nodeState(g, n) != s.state && n.Stamp() == s.stamp {
					t.Errorf("n%d changed but kept stamp %d:\n before %s\n after  %s", n.ID, s.stamp, s.state, nodeState(g, n))
				}
			}
			for _, n := range want {
				if s := before[n]; nodeState(g, n) == s.state || n.Stamp() == s.stamp {
					t.Errorf("n%d: the mutator must change it and its stamp (state changed %v, stamp %d -> %d)",
						n.ID, nodeState(g, n) != s.state, s.stamp, n.Stamp())
				}
			}
			for n := range g.nodes {
				if _, ok := before[n]; !ok && n.Stamp() == 0 {
					t.Errorf("created n%d has the zero stamp", n.ID)
				}
			}
		})
	}
}

// TestSetPosRejectsOccupiedNode pins the invariant the schedulers'
// iteration stamps rely on: a node's position is fixed before anything
// is placed in it, so the home of a placed op never moves.
func TestSetPosRejectsOccupiedNode(t *testing.T) {
	g, ns, _ := buildChain(t)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on an occupied node did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SetPos (ops)", func() { g.SetPos(ns[0], 0.5) })
	mustPanic("SetPos (branch only)", func() { g.SetPos(ns[2], 0.5) })
	mustPanic("PlaceBetween", func() { g.PlaceBetween(ns[1], ns[0], ns[2]) })

	fresh := g.NewNode()
	g.PlaceBetween(fresh, ns[0], ns[1])
	if p := fresh.Pos(); p <= ns[0].Pos() || p >= ns[1].Pos() {
		t.Fatalf("PlaceBetween put the fresh node at %v, outside (%v, %v)", p, ns[0].Pos(), ns[1].Pos())
	}
}

// isolatedBranch builds a node outside the chain — no predecessors,
// both branch sides exiting — with an op on the true side, so detaching
// and adopting it changes trees but no edge.
func isolatedBranch(g *Graph) *Node {
	nb := g.NewNode()
	t, _ := g.InsertBranchAtLeaf(nb.Root, freshCJ(g), nil, nil)
	g.AddOp(freshOp(g), t)
	return nb
}

func freshOp(g *Graph) *ir.Op {
	return &ir.Op{ID: g.Alloc.OpID(), Origin: 90, Iter: 0, Kind: ir.Const, Dst: g.Alloc.Reg("d"), Imm: 7}
}

func freshCJ(g *Graph) *ir.Op {
	return &ir.Op{ID: g.Alloc.OpID(), Origin: 91, Iter: 0, Kind: ir.CJ, Src: [2]ir.Reg{g.Alloc.Reg("q")}, Imm: 1, BImm: true, Rel: ir.Lt}
}
