package graph

import (
	"repro/internal/ir"
)

// Clone deep-copies the graph: every node, vertex, and operation is
// duplicated (operations keep their IDs, origins, iteration tags, and
// dense indices; nodes keep their IDs and order-maintenance keys), and
// the clone's bookkeeping (predecessor sets, op placements, ID counters)
// is rebuilt to match. The clone uses alloc for future allocations; pass
// an independent allocator (ir.Alloc.Clone) so transformations on the
// clone allocate exactly the IDs the same transformations on the
// original would — schedulers mutating a clone behave bit-identically
// to schedulers mutating the original.
//
// Nodes, vertices, and operations are carved out of three single arena
// slices — one allocation per kind for the whole graph instead of one
// per object — which is what keeps POST's per-target phase-1 memo
// copies cheap.
//
// The returned slice maps original op IDs to their clones (nil for IDs
// not placed in this graph); it ends at the largest placed ID, so
// callers holding external op lists (e.g. pipeline.Unwound.Ops) bound
// their lookups by its length before re-pointing them at the copies.
func (g *Graph) Clone(alloc *ir.Alloc) (*Graph, []*ir.Op) {
	if alloc == nil {
		alloc = g.Alloc
	}
	ng := &Graph{
		Alloc:      alloc,
		Label:      g.Label,
		nodes:      make(map[*Node]bool, len(g.nodes)),
		version:    g.version,
		nextNodeID: g.nextNodeID,
		maxPos:     g.maxPos,
	}

	// Count vertices (and per-iteration count slots, and def/use summary
	// words) so every arena is sized exactly: growing an arena mid-build
	// would move objects already pointed at. The same pass finds the
	// largest placed op ID, which sizes byID.
	nVertices, nIterSlots, nSumWords, nDefSites, nStorePos, maxID := 0, 0, 0, 0, 0, 0
	for n := range g.nodes {
		n.Walk(func(v *Vertex) {
			nVertices++
			nSumWords += v.sum.words()
			nDefSites += len(v.sum.defSites)
			nStorePos += len(v.sum.storePos)
			for _, op := range v.Ops {
				maxID = max(maxID, op.ID)
			}
			if v.CJ != nil {
				maxID = max(maxID, v.CJ.ID)
			}
		})
		nIterSlots += len(n.iterCounts)
	}
	opArena := make([]ir.Op, 0, g.numPlaced)
	vertexArena := make([]Vertex, 0, nVertices)
	nodeArena := make([]Node, 0, len(g.nodes))
	opPtrArena := make([]*ir.Op, 0, g.numPlaced)
	iterArena := make([]int32, 0, nIterSlots)
	sumArena := make([]uint64, nSumWords)
	dsArena := make([]defSite, nDefSites)
	spArena := make([]int32, nStorePos)

	byID := make([]*ir.Op, maxID+1)
	cloneOp := func(op *ir.Op) *ir.Op {
		if op == nil {
			return nil
		}
		if c := byID[op.ID]; c != nil {
			return c
		}
		opArena = append(opArena, *op)
		c := &opArena[len(opArena)-1]
		// The struct copy drags the source op's resident placement
		// along; the clone is unplaced until setLoc registers it.
		c.SetPlacement(nil)
		byID[op.ID] = c
		return c
	}

	nodeMap := make(map[*Node]*Node, len(g.nodes))
	for n := range g.nodes {
		nodeArena = append(nodeArena, Node{
			ID: n.ID, Drain: n.Drain, pos: n.pos,
			opCount: n.opCount, branchCount: n.branchCount, g: ng,
		})
		nc := &nodeArena[len(nodeArena)-1]
		if len(n.iterCounts) > 0 {
			// Capped sub-slice of the shared arena, like vertex op lists:
			// a later grow on the node re-allocates instead of clobbering
			// its neighbour.
			start := len(iterArena)
			iterArena = append(iterArena, n.iterCounts...)
			nc.iterCounts = iterArena[start:len(iterArena):len(iterArena)]
		}
		nodeMap[n] = nc
		ng.nodes[nc] = true
	}

	// Clone each instruction tree; leaf successors are resolved through
	// nodeMap and predecessor counts rebuilt as edges are recreated.
	var cloneVertex func(v *Vertex, n *Node, parent *Vertex) *Vertex
	cloneVertex = func(v *Vertex, n *Node, parent *Vertex) *Vertex {
		vertexArena = append(vertexArena, Vertex{node: n, parent: parent})
		nv := &vertexArena[len(vertexArena)-1]
		sumArena, dsArena, spArena = v.sum.cloneInto(&nv.sum, sumArena, dsArena, spArena)
		if len(v.Ops) > 0 {
			// Each vertex's op-pointer list is a capped sub-slice of one
			// shared arena; a later append on the vertex re-allocates
			// rather than clobbering its neighbour.
			start := len(opPtrArena)
			for _, op := range v.Ops {
				c := cloneOp(op)
				opPtrArena = append(opPtrArena, c)
				ng.setLoc(c, nv)
			}
			nv.Ops = opPtrArena[start:len(opPtrArena):len(opPtrArena)]
		}
		if v.CJ != nil {
			nv.CJ = cloneOp(v.CJ)
			ng.setLoc(nv.CJ, nv)
			nv.True = cloneVertex(v.True, n, nv)
			nv.False = cloneVertex(v.False, n, nv)
			return nv
		}
		if v.Succ != nil {
			nv.Succ = nodeMap[v.Succ]
			ng.link(n, nv.Succ)
		}
		return nv
	}
	for n := range g.nodes {
		nodeMap[n].Root = cloneVertex(n.Root, nodeMap[n], nil)
	}
	ng.Entry = nodeMap[g.Entry]
	return ng, byID
}
