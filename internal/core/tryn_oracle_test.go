package core

import (
	"sort"

	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/profile"
)

// This file keeps the original TryN enumerator as a test oracle: an
// odometer over every choice combination of a cluster, each priced by
// re-linking the whole combination and calling the cost model afresh, and
// both placement-feedback passes always run. The production search must
// commit byte-identical layouts and forceJump sets.

// tryChoice is one alignment possibility for a node, mirroring the paper:
// single-exit nodes try {fall-through, taken+jump}; conditionals try each
// outgoing edge as the fall-through and also neither.
type tryChoice uint8

const (
	chooseFallF   tryChoice = iota // keep the fall edge as fall-through (cond)
	chooseFallT                    // make the taken edge the fall-through (cond, inverts)
	chooseNeither                  // align neither edge: conditional + jump
	chooseLink                     // single-exit: successor becomes fall-through
	chooseJump                     // single-exit: reach successor by jump
)

// oracleNode is a node participating in one oracle TryN window.
type oracleNode struct {
	info     *nodeInfo
	model    cost.Model
	choices  []tryChoice
	fallback float64
	weight   uint64
}

// linkTarget returns the chain-link destination of a choice, or NoBlock for
// non-linking choices.
func (n *oracleNode) linkTarget(ch tryChoice) ir.BlockID {
	switch ch {
	case chooseFallF:
		return n.info.f
	case chooseFallT, chooseLink:
		return n.info.t
	default:
		return ir.NoBlock
	}
}

// oracleTryNLayout runs both TryN passes unconditionally.
func oracleTryNLayout(p *ir.Proc, pp *profile.ProcProfile, opts Options) ([]ir.BlockID, map[ir.BlockID]bool) {
	layout, _ := oracleTryNOnce(p, pp, opts, nil)
	pos := make([]int, len(p.Blocks))
	for i, b := range layout {
		pos[b] = i
	}
	return oracleTryNOnce(p, pp, opts, pos)
}

func oracleTryNOnce(p *ir.Proc, pp *profile.ProcProfile, opts Options, posHint []int) ([]ir.BlockID, map[ir.BlockID]bool) {
	m := opts.Model
	c := newChains(p)
	infos := buildNodeInfos(p, pp)
	if posHint != nil {
		for i := range infos {
			infos[i].posHint = posHint
		}
	}
	edges := alignableEdges(p, pp.Weight, opts.minWeight())

	decided := make(map[ir.BlockID]bool)
	forceJump := make(map[ir.BlockID]bool)

	i := 0
	for i < len(edges) {
		var nodes []*oracleNode
		nodeSet := make(map[ir.BlockID]*oracleNode)
		taken := 0
		for i < len(edges) && taken < opts.window() {
			e := edges[i]
			i++
			if decided[e.from] || !infos[e.from].valid {
				continue
			}
			taken++
			if nodeSet[e.from] != nil {
				continue
			}
			tn := makeOracleNode(&infos[e.from], m)
			nodeSet[e.from] = tn
			nodes = append(nodes, tn)
		}
		if len(nodes) == 0 {
			continue
		}
		sort.SliceStable(nodes, func(a, b int) bool {
			if nodes[a].weight != nodes[b].weight {
				return nodes[a].weight > nodes[b].weight
			}
			return nodes[a].info.id < nodes[b].info.id
		})

		for _, cluster := range oracleClusterNodes(c, nodes) {
			oracleCommitBest(c, cluster, forceJump, opts.maxCombos())
		}
		for _, n := range nodes {
			decided[n.info.id] = true
		}
	}

	finishLinks(c, p, pp, forceJump)

	for idx := range infos {
		ni := &infos[idx]
		if !ni.valid || !ni.isCond || decided[ni.id] || c.next[ni.id] != ir.NoBlock {
			continue
		}
		if ni.neitherCost(m) < ni.alignCost(m, ni.f) {
			forceJump[ni.id] = true
		}
	}
	return orderChains(c, pp, opts.Order), forceJump
}

func makeOracleNode(ni *nodeInfo, m cost.Model) *oracleNode {
	tn := &oracleNode{info: ni, model: m, weight: ni.wT + ni.wF}
	if ni.isCond {
		tn.fallback = ni.neitherCost(m)
		tn.choices = append(tn.choices, chooseFallF)
		if ni.t != ni.f {
			tn.choices = append(tn.choices, chooseFallT)
		}
		tn.choices = append(tn.choices, chooseNeither)
	} else {
		tn.fallback = ni.jumpCost(m)
		tn.choices = append(tn.choices, chooseLink, chooseJump)
	}
	return tn
}

// choiceCost prices one choice of a node against the live chain state,
// calling the cost model directly.
func (n *oracleNode) choiceCost(c *chains, ch tryChoice, linked bool) float64 {
	ni := n.info
	m := n.model
	switch ch {
	case chooseFallF:
		if !linked {
			return n.fallback
		}
		return m.CondBranch(ni.wF, ni.wT, chainBackward(c, ni, ni.t))
	case chooseFallT:
		if !linked {
			return n.fallback
		}
		return m.CondBranch(ni.wT, ni.wF, chainBackward(c, ni, ni.f))
	case chooseNeither:
		return ni.neitherCost(m)
	case chooseLink:
		if !linked {
			return n.fallback
		}
		return 0
	case chooseJump:
		return ni.jumpCost(m)
	default:
		return n.fallback
	}
}

func oracleClusterNodes(c *chains, nodes []*oracleNode) [][]*oracleNode {
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	keyOwner := make(map[int32]int)
	for idx, n := range nodes {
		keys := []int32{c.findNoCompress(n.info.id)}
		for _, ch := range n.choices {
			if t := n.linkTarget(ch); t != ir.NoBlock {
				keys = append(keys, c.findNoCompress(t))
			}
		}
		for _, k := range keys {
			if prev, ok := keyOwner[k]; ok {
				union(prev, idx)
			} else {
				keyOwner[k] = idx
			}
		}
	}

	groups := make(map[int][]*oracleNode)
	var order []int
	for idx, n := range nodes {
		r := find(idx)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], n)
	}
	out := make([][]*oracleNode, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// oracleCommitBest evaluates every combination of the cluster in odometer
// order and commits the first cheapest.
func oracleCommitBest(c *chains, cluster []*oracleNode, forceJump map[ir.BlockID]bool, maxCombos int) {
	for len(cluster) > 0 {
		n := 0
		combos := 1
		for n < len(cluster) {
			next := combos * len(cluster[n].choices)
			if n > 0 && next > maxCombos {
				break
			}
			combos = next
			n++
		}
		sub := cluster[:n]
		cluster = cluster[n:]

		best := make([]int, len(sub))
		cur := make([]int, len(sub))
		bestCost := evalCombo(c, sub, cur)
		for {
			k := len(sub) - 1
			for k >= 0 {
				cur[k]++
				if cur[k] < len(sub[k].choices) {
					break
				}
				cur[k] = 0
				k--
			}
			if k < 0 {
				break
			}
			if ccost := evalCombo(c, sub, cur); ccost < bestCost {
				bestCost = ccost
				copy(best, cur)
			}
		}

		for idx, n := range sub {
			ch := n.choices[best[idx]]
			linked := false
			if t := n.linkTarget(ch); t != ir.NoBlock && t != n.info.id && c.canLink(n.info.id, t) {
				c.link(n.info.id, t)
				linked = true
			}
			if !linked && n.info.isCond &&
				n.info.neitherCost(n.model) < n.info.alignCost(n.model, n.info.f) {
				forceJump[n.info.id] = true
			}
		}
	}
}

// evalCombo prices one choice combination: all of its links are applied
// first (in node order), every node is priced against the resulting chain
// state, and the links are rolled back.
func evalCombo(c *chains, sub []*oracleNode, cur []int) float64 {
	var undo []undoRecord
	linked := make([]bool, len(sub))
	for idx, n := range sub {
		t := n.linkTarget(n.choices[cur[idx]])
		if t == ir.NoBlock {
			continue
		}
		if t != n.info.id && c.canLink(n.info.id, t) {
			undo = append(undo, c.tentativeLink(n.info.id, t))
			linked[idx] = true
		}
	}
	total := 0.0
	for idx, n := range sub {
		total += n.choiceCost(c, n.choices[cur[idx]], linked[idx])
	}
	for k := len(undo) - 1; k >= 0; k-- {
		c.undo(undo[k])
	}
	return total
}
