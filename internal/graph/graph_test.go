package graph

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// buildChain makes a graph  n1(op a) -> n2(op b) -> n3(cj) -> n4(op c) -> exit
// with the cj's false side going to an empty drain node.
func buildChain(t *testing.T) (*Graph, []*Node, []*ir.Op) {
	t.Helper()
	al := ir.NewAlloc()
	g := New(al)
	ra, rb, rc := al.Reg("a"), al.Reg("b"), al.Reg("c")
	a := &ir.Op{ID: al.OpID(), Origin: 0, Iter: 0, Kind: ir.Const, Dst: ra, Imm: 1}
	b := &ir.Op{ID: al.OpID(), Origin: 1, Iter: 0, Kind: ir.Add, Dst: rb, Src: [2]ir.Reg{ra}, Imm: 1, BImm: true}
	cj := &ir.Op{ID: al.OpID(), Origin: 2, Iter: 0, Kind: ir.CJ, Src: [2]ir.Reg{rb}, Imm: 10, BImm: true, Rel: ir.Lt}
	c := &ir.Op{ID: al.OpID(), Origin: 3, Iter: 0, Kind: ir.Add, Dst: rc, Src: [2]ir.Reg{rb}, Imm: 2, BImm: true}

	drain := g.NewNode()
	drain.Drain = true

	n1 := AppendOp(g, nil, a)
	n2 := AppendOp(g, n1, b)
	n3 := AppendBranch(g, n2, cj, drain)
	n4 := AppendOp(g, n3, c)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after build: %v", err)
	}
	return g, []*Node{n1, n2, n3, n4, drain}, []*ir.Op{a, b, cj, c}
}

func TestChainBuildAndValidate(t *testing.T) {
	g, ns, ops := buildChain(t)
	if g.Entry != ns[0] {
		t.Fatal("entry wrong")
	}
	if g.NodeOf(ops[0]) != ns[0] || g.NodeOf(ops[2]) != ns[2] {
		t.Fatal("op locations wrong")
	}
	if ns[2].BranchCount() != 1 || ns[2].OpCount() != 0 {
		t.Fatal("branch node counts wrong")
	}
	if sp := g.SinglePred(ns[1]); sp != ns[0] {
		t.Fatalf("SinglePred = %v", sp)
	}
	succs := ns[2].Successors()
	if len(succs) != 2 {
		t.Fatalf("branch successors = %d, want 2", len(succs))
	}
}

func TestOrderAndIndex(t *testing.T) {
	g, ns, _ := buildChain(t)
	order := g.Order()
	if order[0] != ns[0] {
		t.Fatal("order must start at entry")
	}
	if g.Index(ns[0]) != 0 {
		t.Fatal("entry index wrong")
	}
	if g.Index(ns[3]) <= g.Index(ns[2]) {
		t.Fatal("topological order violated")
	}
	// Unreachable node.
	foreign := g.NewNode()
	if g.Index(foreign) != -1 {
		t.Fatal("unreachable node should have index -1")
	}
}

func TestMainChainSkipsDrains(t *testing.T) {
	g, ns, _ := buildChain(t)
	chain := g.MainChain()
	want := []*Node{ns[0], ns[1], ns[2], ns[3]}
	if len(chain) != len(want) {
		t.Fatalf("MainChain len = %d, want %d", len(chain), len(want))
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("MainChain[%d] = n%d, want n%d", i, chain[i].ID, want[i].ID)
		}
	}
}

func TestMoveOpBetweenVertices(t *testing.T) {
	g, ns, ops := buildChain(t)
	// Move op c from n4 into n3's continue leaf.
	leaf := ContinueLeaf(ns[2])
	g.RemoveOp(ops[3])
	g.AddOp(ops[3], leaf)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after move: %v", err)
	}
	if g.NodeOf(ops[3]) != ns[2] {
		t.Fatal("op location not updated")
	}
	if ns[2].OpCount() != 1 {
		t.Fatal("op count wrong after move")
	}
	// n4 is now empty; splice it out.
	if !g.SpliceOutEmpty(ns[3]) {
		t.Fatal("SpliceOutEmpty failed")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after splice: %v", err)
	}
	if ContinueLeaf(ns[2]).Succ != nil {
		t.Fatal("splice should leave program exit")
	}
}

func TestHoistOp(t *testing.T) {
	g, ns, ops := buildChain(t)
	leaf := ContinueLeaf(ns[2])
	g.RemoveOp(ops[3])
	g.AddOp(ops[3], leaf)
	g.HoistOp(ops[3])
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after hoist: %v", err)
	}
	if got := g.Where(ops[3]); got != ns[2].Root {
		t.Fatal("hoist did not reach root vertex")
	}
}

func TestInsertBefore(t *testing.T) {
	g, ns, _ := buildChain(t)
	pre := g.InsertBefore(ns[0])
	if g.Entry != pre {
		t.Fatal("entry not updated")
	}
	if pre.FallThrough() != ns[0] {
		t.Fatal("prelude does not fall through to old entry")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	mid := g.InsertBefore(ns[1])
	if g.SinglePred(ns[1]) != mid || g.SinglePred(mid) != ns[0] {
		t.Fatal("mid insertion edges wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesDoubleDef(t *testing.T) {
	g, ns, ops := buildChain(t)
	dup := &ir.Op{ID: g.Alloc.OpID(), Kind: ir.Const, Dst: ops[0].Dst, Imm: 9}
	g.AddOp(dup, ns[0].Root)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "defined twice") {
		t.Fatalf("Validate should catch double def, got %v", err)
	}
}

func TestIterCountAndSchedCount(t *testing.T) {
	g, ns, ops := buildChain(t)
	if ns[0].IterCount(0) != 1 || ns[0].IterCount(1) != 0 {
		t.Fatal("IterCount wrong")
	}
	// Frozen ops enter the graph only already frozen, through AddOp
	// (move-cj drain clones, epilogue copies); they must not count.
	drain := g.NewNode()
	drain.Drain = true
	g.AddOp(ops[0].Clone(g.Alloc.OpID(), true), drain.Root)
	if drain.IterCount(0) != 0 || drain.OpCount() != 1 {
		t.Fatal("frozen ops must not count")
	}
	if ns[0].IterCount(0) != 1 {
		t.Fatal("cloning must not disturb the source's count")
	}
	if ns[2].IterCount(0) != 1 { // the branch
		t.Fatal("branch must count as schedulable")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after frozen AddOp: %v", err)
	}
}

// TestValidateCatchesPlacementFaults: the op-resident slot is the only
// placement record, so Validate must catch a slot that disagrees with
// the trees in either direction, and a clone's ops must not resolve
// against the source graph.
func TestValidateCatchesPlacementFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(g *Graph, ns []*Node, ops []*ir.Op)
		want  string
	}{
		{"stray registration", func(g *Graph, ns []*Node, _ []*ir.Op) {
			stray := &ir.Op{ID: g.Alloc.OpID(), Kind: ir.Const, Dst: g.Alloc.Reg(""), Imm: 7}
			g.setLoc(stray, ns[0].Root) // registered, but no tree holds it
		}, "numPlaced"},
		{"nil slot", func(_ *Graph, _ []*Node, ops []*ir.Op) {
			ops[1].SetPlacement(nil)
		}, "location out of sync"},
		{"slot at another vertex", func(_ *Graph, ns []*Node, ops []*ir.Op) {
			ops[1].SetPlacement(ns[0].Root)
		}, "location out of sync"},
		{"branch slot at another vertex", func(_ *Graph, ns []*Node, ops []*ir.Op) {
			ops[2].SetPlacement(ns[3].Root)
		}, "branch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, ns, ops := buildChain(t)
			tc.fault(g, ns, ops)
			if err := g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}

	t.Run("clone ops stay foreign", func(t *testing.T) {
		g, _, ops := buildChain(t)
		ng, byID := g.Clone(g.Alloc.Clone())
		for _, op := range ops {
			c := byID[op.ID]
			if c == nil || ng.Where(c) == nil {
				t.Fatalf("op %v: not placed in the clone", op)
			}
			if g.Where(c) != nil {
				t.Fatalf("op %v: clone resolves against the source graph", op)
			}
			if ng.Where(op) != nil {
				t.Fatalf("op %v: source op resolves against the clone", op)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRowString(t *testing.T) {
	g, ns, _ := buildChain(t)
	names := []string{"a", "b", "cj", "c"}
	row := g.RowString(ns[2], func(o int) string { return names[o] })
	if row != "cj0" {
		t.Fatalf("RowString = %q, want cj0", row)
	}
}

func TestNodeStringRendering(t *testing.T) {
	g, ns, _ := buildChain(t)
	s := g.NodeString(ns[2])
	if !strings.Contains(s, "cj") || !strings.Contains(s, "?") {
		t.Errorf("NodeString = %q", s)
	}
	full := g.String()
	if !strings.Contains(full, "-> exit") {
		t.Errorf("graph String missing exit:\n%s", full)
	}
}

func TestRetargetLeafMaintainsPreds(t *testing.T) {
	g, ns, _ := buildChain(t)
	leaf := ContinueLeaf(ns[3])
	g.RetargetLeaf(leaf, ns[4]) // point tail at the drain node
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.PredEdgeCount(ns[4]) != 2 {
		t.Fatalf("drain pred count = %d, want 2", g.PredEdgeCount(ns[4]))
	}
}
