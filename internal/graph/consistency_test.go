package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// TestRandomMutationsKeepCachesConsistent drives long random sequences
// of graph mutations — op placement and movement, frozen drain clones,
// branch insertion, leaf retargeting, node insertion and splicing,
// move-cj style node splits, and in-place operand rewrites — and after
// every step lets Validate cross-check the incremental caches (compact
// adjacency sets, per-iteration schedulable counts, op/branch counts,
// op placements, def/use summaries) against full recounts. This is the
// consistency property the walk-free schedulers rely on: no sequence of
// mutator calls may drift a cache from the structure it summarizes.
//
// Operations draw registers from a small shared pool, so removals hit
// the case where several ops contribute the same summary bit, and the
// mix includes loads, stores (direct and indirect) and copies, so the
// store/load counters and every operand-rewrite path are exercised.
func TestRandomMutationsKeepCachesConsistent(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			al := ir.NewAlloc()
			g := New(al)

			regs := make([]ir.Reg, 6)
			for i := range regs {
				regs[i] = al.Reg("")
			}
			arr := al.Array("A")
			randReg := func() ir.Reg { return regs[rng.Intn(len(regs))] }

			var placed []*ir.Op // placed non-branch ops
			origin := 0
			newOp := func(iter int) *ir.Op {
				op := &ir.Op{ID: al.OpID(), Origin: origin, Iter: iter}
				origin++
				switch rng.Intn(5) {
				case 0:
					op.Kind, op.Dst, op.Imm = ir.Const, randReg(), int64(origin)
				case 1:
					op.Kind, op.Dst = ir.Add, randReg()
					op.Src = [2]ir.Reg{randReg(), randReg()}
				case 2:
					op.Kind, op.Dst = ir.Copy, randReg()
					op.Src = [2]ir.Reg{randReg()}
				case 3:
					op.Kind, op.Dst = ir.Load, randReg()
					op.Mem = ir.MemRef{Array: arr, Index: int64(rng.Intn(4))}
					if rng.Intn(2) == 0 {
						op.Mem.IndexReg = randReg()
					}
				case 4:
					op.Kind = ir.Store
					op.Src = [2]ir.Reg{randReg()}
					op.Mem = ir.MemRef{Array: arr, Index: int64(rng.Intn(4))}
				}
				return op
			}

			// Seed chain: six single-op nodes over three iterations.
			var tail *Node
			for i := 0; i < 6; i++ {
				op := newOp(i % 3)
				tail = AppendOp(g, tail, op)
				placed = append(placed, op)
			}

			liveNodes := func() []*Node {
				var ns []*Node
				for n := range g.nodes {
					ns = append(ns, n)
				}
				// Deterministic pick order under a seeded rng.
				for i := 1; i < len(ns); i++ {
					for j := i; j > 0 && ns[j-1].ID > ns[j].ID; j-- {
						ns[j-1], ns[j] = ns[j], ns[j-1]
					}
				}
				return ns
			}
			randNode := func() *Node {
				ns := liveNodes()
				return ns[rng.Intn(len(ns))]
			}
			randVertex := func(n *Node) *Vertex {
				var vs []*Vertex
				n.Walk(func(v *Vertex) { vs = append(vs, v) })
				return vs[rng.Intn(len(vs))]
			}
			prunePlaced := func() {
				w := 0
				for _, op := range placed {
					if g.Where(op) != nil {
						placed[w] = op
						w++
					}
				}
				placed = placed[:w]
			}
			// defClash reports whether putting a definition of d at v
			// would break the single-definition-per-path invariant the
			// schedulers maintain (conservative: the op being moved is
			// not excluded, so an in-subtree move may skip needlessly).
			defClash := func(v *Vertex, d ir.Reg) bool {
				if d == ir.NoReg {
					return false
				}
				if v.SubtreeDefines(d) {
					return true
				}
				for a := v.Parent(); a != nil; a = a.Parent() {
					if a.DefinesHere(d) {
						return true
					}
				}
				return false
			}

			for step := 0; step < 250; step++ {
				switch rng.Intn(11) {
				case 0: // place a fresh op (NoIter included, sometimes frozen)
					iter := rng.Intn(5) - 1
					op := newOp(iter)
					if rng.Intn(4) == 0 {
						op.Frozen = true
					}
					v := randVertex(randNode())
					if defClash(v, op.Def()) {
						continue
					}
					g.AddOp(op, v)
					placed = append(placed, op)
				case 1: // remove a placed op
					prunePlaced()
					if len(placed) > 0 {
						i := rng.Intn(len(placed))
						g.RemoveOp(placed[i])
						placed = append(placed[:i], placed[i+1:]...)
					}
				case 2: // move a placed op to a random vertex
					prunePlaced()
					if len(placed) > 0 {
						op := placed[rng.Intn(len(placed))]
						v := randVertex(randNode())
						if defClash(v, op.Def()) {
							continue
						}
						g.MoveOp(op, v)
					}
				case 3: // a frozen clone enters through AddOp at a fresh drain node (move-cj's drain path)
					prunePlaced()
					if len(placed) > 0 {
						drain := g.NewNode()
						drain.Drain = true
						c := placed[rng.Intn(len(placed))].Clone(al.OpID(), true)
						g.AddOp(c, drain.Root)
						placed = append(placed, c)
					}
				case 4: // grow a branch at a random leaf
					n := randNode()
					if n.BranchCount() >= 3 {
						continue // keep trees small
					}
					ls := n.Leaves()
					leaf := ls[rng.Intn(len(ls))]
					cj := &ir.Op{ID: al.OpID(), Origin: origin, Iter: rng.Intn(3), Kind: ir.CJ,
						Src: [2]ir.Reg{randReg()}, Imm: 1, BImm: true, Rel: ir.Lt}
					origin++
					var tSucc, fSucc *Node
					ns := liveNodes()
					if rng.Intn(2) == 0 {
						tSucc = ns[rng.Intn(len(ns))]
					}
					if rng.Intn(2) == 0 {
						fSucc = ns[rng.Intn(len(ns))]
					}
					g.RetargetLeaf(leaf, nil)
					g.InsertBranchAtLeaf(leaf, cj, tSucc, fSucc)
				case 5: // retarget a random leaf (nil allowed)
					n := randNode()
					ls := n.Leaves()
					leaf := ls[rng.Intn(len(ls))]
					var succ *Node
					if rng.Intn(3) > 0 {
						succ = randNode()
					}
					g.RetargetLeaf(leaf, succ)
				case 6: // insert an empty node before a random one
					g.InsertBefore(randNode())
				case 7: // splice an empty node out (no-op unless empty)
					n := randNode()
					if n == g.Entry && n.FallThrough() == nil {
						continue // would leave the graph entry-less
					}
					g.SpliceOutEmpty(n)
				case 8: // rewrite a use in place (copy propagation's mutation)
					prunePlaced()
					if len(placed) == 0 {
						continue
					}
					op := placed[rng.Intn(len(placed))]
					var buf [3]ir.Reg
					uses := op.Uses(buf[:0])
					if len(uses) == 0 {
						continue
					}
					g.ReplaceUse(op, uses[rng.Intn(len(uses))], randReg())
				case 9: // retarget a destination in place (renaming's mutation)
					prunePlaced()
					if len(placed) == 0 {
						continue
					}
					op := placed[rng.Intn(len(placed))]
					if op.IsStore() {
						continue
					}
					r := randReg()
					if defClash(g.Where(op), r) {
						continue
					}
					g.RetargetDef(op, r)
				case 10: // split a branch-rooted unreferenced node (move-cj shape)
					var n *Node
					for _, cand := range liveNodes() {
						if cand != g.Entry && !cand.Root.IsLeaf() && g.PredEdgeCount(cand) == 0 {
							n = cand
							break
						}
					}
					if n == nil {
						continue
					}
					cj, rootOps, tSub, fSub := g.DetachBranchRoot(n)
					tn := g.NewNode()
					g.AdoptSubtree(tn, tSub)
					for _, o := range rootOps {
						g.AddOp(o, tSub)
					}
					fn := g.NewNode()
					fn.Drain = true
					g.AdoptSubtree(fn, fSub)
					for _, o := range rootOps {
						c := o.Clone(al.OpID(), true)
						g.AddOp(c, fSub)
						placed = append(placed, c)
					}
					// Re-home the detached branch at some leaf elsewhere.
					home := randNode()
					for home == tn || home == fn {
						home = randNode()
					}
					ls := home.Leaves()
					leaf := ls[rng.Intn(len(ls))]
					g.RetargetLeaf(leaf, nil)
					g.InsertBranchAtLeaf(leaf, cj, tn, fn)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}

			// Spot-check the O(1) reads against explicit recounts.
			for _, n := range liveNodes() {
				wantIters := n.recountSched()
				for iter := -1; iter < 6; iter++ {
					if got, want := n.IterCount(iter), int(wantIters[iter+1]); got != want {
						t.Fatalf("IterCount(%d) = %d, recount %d", iter, got, want)
					}
				}
			}

			// Spot-check the summary query API against op-by-op walks of
			// every subtree, for every pool register (Validate checks the
			// internal tiers; this checks the exported answers).
			for _, n := range liveNodes() {
				n.Walk(func(v *Vertex) {
					loads, storesHere, loadsHere := false, false, false
					defsHere := map[ir.Reg]bool{}
					defs := map[ir.Reg]bool{}
					uses := map[ir.Reg]bool{}
					var walk func(w *Vertex)
					walk = func(w *Vertex) {
						var buf [3]ir.Reg
						for _, op := range w.Ops {
							if d := op.Def(); d != ir.NoReg {
								defs[d] = true
								if w == v {
									defsHere[d] = true
								}
							}
							for _, u := range op.Uses(buf[:0]) {
								uses[u] = true
							}
							loads = loads || op.IsLoad()
							if w == v {
								storesHere = storesHere || op.IsStore()
								loadsHere = loadsHere || op.IsLoad()
							}
						}
						if w.CJ != nil {
							for _, u := range w.CJ.Uses(buf[:0]) {
								uses[u] = true
							}
						}
						if !w.IsLeaf() {
							walk(w.True)
							walk(w.False)
						}
					}
					walk(v)
					for _, r := range regs {
						if got, want := v.SubtreeDefines(r), defs[r]; got != want {
							t.Fatalf("n%d: SubtreeDefines(r%d) = %v, walk says %v", n.ID, r, got, want)
						}
						if got, want := v.SubtreeReads(r), uses[r]; got != want {
							t.Fatalf("n%d: SubtreeReads(r%d) = %v, walk says %v", n.ID, r, got, want)
						}
						if got, want := v.DefinesHere(r), defsHere[r]; got != want {
							t.Fatalf("n%d: DefinesHere(r%d) = %v, walk says %v", n.ID, r, got, want)
						}
					}
					if got := v.StoresHere(); got != storesHere {
						t.Fatalf("n%d: StoresHere() = %v, walk says %v", n.ID, got, storesHere)
					}
					if got := v.LoadsHere(); got != loadsHere {
						t.Fatalf("n%d: LoadsHere() = %v, walk says %v", n.ID, got, loadsHere)
					}
					if got := v.SubtreeLoads(); got != loads {
						t.Fatalf("n%d: SubtreeLoads() = %v, walk says %v", n.ID, got, loads)
					}

					// Path-prefix answers against the ancestor chain: the
					// root→v path is v plus its parents, and only their own
					// op lists (plus CJs, which define nothing and touch no
					// memory) contribute.
					pathDefs := map[ir.Reg]bool{}
					pathStores := false
					for a := v; a != nil; a = a.Parent() {
						for _, op := range a.Ops {
							if d := op.Def(); d != ir.NoReg {
								pathDefs[d] = true
							}
							pathStores = pathStores || op.IsStore()
						}
					}
					for _, r := range regs {
						if got, want := v.PathDefines(r), pathDefs[r]; got != want {
							t.Fatalf("n%d: PathDefines(r%d) = %v, ancestor walk says %v", n.ID, r, got, want)
						}
					}
					if got := v.PathStores(); got != pathStores {
						t.Fatalf("n%d: PathStores() = %v, ancestor walk says %v", n.ID, got, pathStores)
					}
				})
			}
		})
	}
}

// TestEdgeSetOverflow exercises the inline-array overflow path of the
// compact adjacency sets: a node with more distinct successors and
// predecessors than the inline capacity, plus parallel edges, must
// answer Preds/Successors/PredEdgeCount/SinglePred exactly and survive
// edge removal back below the inline boundary.
func TestEdgeSetOverflow(t *testing.T) {
	al := ir.NewAlloc()
	g := New(al)
	hub := g.NewNode()
	g.Entry = hub

	// Give the hub three branches -> four leaves, each pointing at its
	// own successor: 4 distinct successors (> inlineEdges).
	var succs []*Node
	for i := 0; i < 4; i++ {
		succs = append(succs, g.NewNode())
	}
	mkCJ := func() *ir.Op {
		return &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{al.Reg("")}, Imm: 1, BImm: true, Rel: ir.Lt}
	}
	t0, f0 := g.InsertBranchAtLeaf(hub.Root, mkCJ(), nil, nil)
	t1, f1 := g.InsertBranchAtLeaf(t0, mkCJ(), nil, nil)
	t2, f2 := g.InsertBranchAtLeaf(f0, mkCJ(), nil, nil)
	for i, leaf := range []*Vertex{t1, f1, t2, f2} {
		g.RetargetLeaf(leaf, succs[i])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := hub.Successors(); len(got) != 4 {
		t.Fatalf("hub successors = %d, want 4", len(got))
	}
	for _, s := range succs {
		if g.SinglePred(s) != hub {
			t.Fatalf("succ n%d SinglePred != hub", s.ID)
		}
	}

	// Now give one successor four distinct predecessors (the hub plus
	// three fresh single-leaf nodes) and a parallel edge.
	target := succs[0]
	var extra []*Node
	for i := 0; i < 3; i++ {
		n := g.NewNode()
		extra = append(extra, n)
		g.RetargetLeaf(n.Root, target)
	}
	g.RetargetLeaf(f1, target) // second hub edge: parallel to t1's
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.PredEdgeCount(target); got != 5 {
		t.Fatalf("PredEdgeCount = %d, want 5", got)
	}
	if got := len(g.Preds(target)); got != 4 {
		t.Fatalf("distinct preds = %d, want 4", got)
	}
	if g.SinglePred(target) != nil {
		t.Fatal("SinglePred must be nil with 5 in-edges")
	}

	// Unwind the overflow: drop edges until one remains.
	g.RetargetLeaf(f1, nil)
	for _, n := range extra {
		g.RetargetLeaf(n.Root, nil)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.SinglePred(target) != hub {
		t.Fatal("SinglePred must return the hub again")
	}
	if got := hub.NonDrainSucc(); got != nil {
		t.Fatalf("NonDrainSucc over 4 successors = n%d, want nil (ambiguous)", got.ID)
	}
}
