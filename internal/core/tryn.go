package core

import (
	"context"
	"math"
	"sort"

	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/profile"
)

// tryOption is one alignment possibility for a node, mirroring the paper:
// single-exit nodes try {fall-through, taken+jump}; conditionals try each
// outgoing edge as the fall-through and also neither. Its costs are
// precomputed so the search never calls the cost model. A linking choice's
// cost depends only on whether dirOf (the successor left as the taken
// direction) lies at or before the node, so both answers are tabulated; a
// fixed-cost choice (neither, or jump) stores its cost in both.
type tryOption struct {
	// target is the chain-link destination, or NoBlock for a fixed choice.
	target ir.BlockID
	dirOf  ir.BlockID
	fwd    float64 // linked cost when dirOf lies after the node
	back   float64 // linked cost when dirOf lies at or before the node
}

// tryNode is a node participating in one TryN window.
type tryNode struct {
	info    *nodeInfo
	options []tryOption
	buf     [3]tryOption // backing store for options
	// fallback is the cost charged when a link choice turns out infeasible
	// in the tentative chain state (target already claimed, cycle, ...).
	fallback float64
	// lbFree is the least cost the node can be charged under any choice
	// and chain state: the search's bound for a node not yet chosen.
	lbFree float64
	// weight orders nodes within the window (hottest first).
	weight uint64
}

// tryNLayout implements the paper's Try15 heuristic with a configurable
// window, refined with one round of placement feedback: the paper notes
// that when forming chains "it is not known where the taken branch will be
// located in the final procedure", so a first pass commits a layout, and a
// second pass repeats the search using the first pass's block positions as
// the backward/forward estimates. The second pass can only change decisions
// whose placement guesses were wrong, so it runs only when some conditional
// in the procedure is priced differently taken-backward and
// taken-forward.
func tryNLayout(p *ir.Proc, pp *profile.ProcProfile, opts Options) ([]ir.BlockID, map[ir.BlockID]bool, error) {
	infos := buildNodeInfos(p, pp)
	s := newTrySearch(opts)
	defer func() {
		opts.Obs.Add("core.plan.tryn.leaves", s.leaves)
		opts.Obs.Add("core.plan.tryn.pruned", s.pruned)
	}()
	layout, forceJump, err := tryNOnce(p, pp, opts, infos, s)
	if err != nil || !directionSensitive(infos, opts.Model) {
		return layout, forceJump, err
	}
	pos := make([]int, len(p.Blocks))
	for i, b := range layout {
		pos[b] = i
	}
	for i := range infos {
		infos[i].posHint = pos
	}
	return tryNOnce(p, pp, opts, infos, s)
}

// directionSensitive reports whether m prices some valid conditional of
// infos differently depending on whether its taken target lies backward.
// posHint reaches TryN's decisions only through that direction argument,
// so when this is false the placement-feedback pass repeats the first pass
// exactly.
func directionSensitive(infos []nodeInfo, m cost.Model) bool {
	for i := range infos {
		ni := &infos[i]
		if !ni.valid || !ni.isCond {
			continue
		}
		if m.CondBranch(ni.wF, ni.wT, true) != m.CondBranch(ni.wF, ni.wT, false) ||
			m.CondBranch(ni.wT, ni.wF, true) != m.CondBranch(ni.wT, ni.wF, false) {
			return true
		}
	}
	return false
}

// tryNOnce is one TryN pass: take the N hottest not-yet-decided edges
// (weight ≥ MinWeight), gather their source nodes, and search the
// combinations of the nodes' alignment choices under the cost model,
// committing the cheapest. Nodes that share chains or targets are searched
// jointly; independent nodes are optimized separately (an exact
// decomposition that keeps the search tractable). Remaining cold edges are
// linked greedily.
func tryNOnce(p *ir.Proc, pp *profile.ProcProfile, opts Options, infos []nodeInfo, s *trySearch) ([]ir.BlockID, map[ir.BlockID]bool, error) {
	m := opts.Model
	c := newChains(p)
	s.c = c
	edges := alignableEdges(p, pp.Weight, opts.minWeight())

	decided := make(map[ir.BlockID]bool)
	forceJump := make(map[ir.BlockID]bool)

	i := 0
	for i < len(edges) {
		// Collect the next window of edges whose sources are undecided.
		var nodes []*tryNode
		nodeSet := make(map[ir.BlockID]*tryNode)
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
			tn := makeTryNode(&infos[e.from], m)
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

		for _, cluster := range clusterNodes(c, nodes) {
			if err := s.commitBest(cluster, forceJump, m, opts.maxCombos()); err != nil {
				return nil, nil, err
			}
		}
		for _, n := range nodes {
			decided[n.info.id] = true
		}
	}

	finishLinks(c, p, pp, forceJump)

	// Loop-trick check for conditionals that ended up without a committed
	// fall-through and were not part of any window (cold or skipped).
	for idx := range infos {
		ni := &infos[idx]
		if !ni.valid || !ni.isCond || decided[ni.id] || c.next[ni.id] != ir.NoBlock {
			continue
		}
		if ni.neitherCost(m) < ni.alignCost(m, ni.f) {
			forceJump[ni.id] = true
		}
	}
	return orderChains(c, pp, opts.Order), forceJump, nil
}

// makeTryNode lists the node's choices with their costs, in the order the
// search enumerates them.
func makeTryNode(ni *nodeInfo, m cost.Model) *tryNode {
	tn := &tryNode{info: ni, weight: ni.wT + ni.wF}
	tn.options = tn.buf[:0]
	if ni.isCond {
		tn.fallback = ni.neitherCost(m)
		tn.options = append(tn.options, tryOption{target: ni.f, dirOf: ni.t,
			fwd: m.CondBranch(ni.wF, ni.wT, false), back: m.CondBranch(ni.wF, ni.wT, true)})
		if ni.t != ni.f {
			// Invert: the taken edge becomes the fall-through.
			tn.options = append(tn.options, tryOption{target: ni.t, dirOf: ni.f,
				fwd: m.CondBranch(ni.wT, ni.wF, false), back: m.CondBranch(ni.wT, ni.wF, true)})
		}
		tn.options = append(tn.options, tryOption{target: ir.NoBlock, fwd: tn.fallback, back: tn.fallback})
	} else {
		tn.fallback = ni.jumpCost(m)
		tn.options = append(tn.options,
			tryOption{target: ni.t},
			tryOption{target: ir.NoBlock, fwd: tn.fallback, back: tn.fallback})
	}
	tn.lbFree = math.Inf(1)
	for _, o := range tn.options {
		lb := math.Min(o.fwd, o.back)
		if o.target != ir.NoBlock {
			lb = math.Min(lb, tn.fallback)
		}
		tn.lbFree = math.Min(tn.lbFree, lb)
	}
	return tn
}

// cost prices option k of the node given the live (tentative) chain state,
// so the BT/FNT backward test can see where the taken target landed: a
// taken target threaded earlier in the node's own chain is certainly
// backward; otherwise the original block order is the estimate. This
// chain-aware pricing is what lets TryN discover where to break a loop —
// the capability the paper credits for Try15 beating Greedy and Cost.
// Link choices that are infeasible in the tentative state fall back to the
// node's unaligned cost.
func (n *tryNode) cost(c *chains, k int, linked bool) float64 {
	o := &n.options[k]
	switch {
	case o.target == ir.NoBlock:
		return o.fwd
	case !linked:
		return n.fallback
	case o.fwd == o.back:
		return o.fwd
	case chainBackward(c, n.info, o.dirOf):
		return o.back
	default:
		return o.fwd
	}
}

// chainBackward reports whether target will lie before (or at) the node in
// the final layout: certain when target is threaded earlier in the node's
// own chain; certainly forward when threaded later; otherwise the node's
// dominance/position estimate decides.
func chainBackward(c *chains, ni *nodeInfo, target ir.BlockID) bool {
	src := ni.id
	if src == target {
		return true
	}
	for cur := c.prev[src]; cur != ir.NoBlock; cur = c.prev[cur] {
		if cur == target {
			return true
		}
	}
	// If target is in the same chain but after src, it is certainly forward.
	for cur := c.next[src]; cur != ir.NoBlock; cur = c.next[cur] {
		if cur == target {
			return false
		}
	}
	return ni.backTo(target)
}

// clusterNodes partitions window nodes into groups that can be optimized
// independently: two nodes interact only if their sources or candidate link
// targets currently share a chain or name the same block. Keys are chain
// roots, so disjoint clusters touch disjoint chains and their link
// feasibilities cannot affect each other.
func clusterNodes(c *chains, nodes []*tryNode) [][]*tryNode {
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
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
		for _, o := range n.options {
			if o.target != ir.NoBlock {
				keys = append(keys, c.findNoCompress(o.target))
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

	groups := make(map[int][]*tryNode)
	var order []int
	for idx, n := range nodes {
		r := find(idx)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], n)
	}
	out := make([][]*tryNode, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// ctxCheckMask sets how often the search polls its context: every 4096
// search steps, a few microseconds of work.
const ctxCheckMask = 1<<12 - 1

// trySearch is the exact branch-and-bound search over one cluster's choice
// combinations. It visits combinations depth-first in odometer order (node
// 0 outermost, choices in index order), links node d tentatively after the
// links of nodes < d, and prices a complete combination against the
// resulting chain state, summing node costs in node order. A subtree is cut
// when the node-order sum of per-node lower bounds already reaches the best
// cost: float addition is monotone in each argument, so that sum never
// exceeds the float total of any combination below, and because a
// combination replaces the best only when strictly cheaper, the first
// minimum in odometer order still wins. The buffers are sized once per
// procedure, so the search allocates nothing.
type trySearch struct {
	ctx context.Context
	c   *chains
	sub []*tryNode
	// Per-depth state: the chosen option, whether it linked, its undo
	// record, and prefix[d], the node-order sum of the chosen nodes'
	// bounds through depth d.
	cur    []int
	linked []bool
	undo   []undoRecord
	prefix []float64

	best     []int
	bestCost float64
	haveBest bool

	steps          int
	leaves, pruned int64
	err            error
}

// newTrySearch sizes the search buffers for opts' window: a window of N
// edges names at most N nodes.
func newTrySearch(opts Options) *trySearch {
	w := opts.window()
	return &trySearch{
		ctx:    opts.Ctx,
		cur:    make([]int, w),
		linked: make([]bool, w),
		undo:   make([]undoRecord, w),
		prefix: make([]float64, w),
		best:   make([]int, w),
	}
}

// commitBest finds the cheapest choice combination of one cluster against
// the live chain state and commits it. Clusters whose combination count
// exceeds maxCombos are split into sequential sub-clusters.
func (s *trySearch) commitBest(cluster []*tryNode, forceJump map[ir.BlockID]bool, m cost.Model, maxCombos int) error {
	for len(cluster) > 0 {
		// Take the longest prefix whose combination count fits the budget.
		n := 0
		combos := 1
		for n < len(cluster) {
			next := combos * len(cluster[n].options)
			if n > 0 && next > maxCombos {
				break
			}
			combos = next
			n++
		}
		s.sub = cluster[:n]
		cluster = cluster[n:]

		s.haveBest = false
		s.search(0)
		if s.err != nil {
			return s.err
		}

		// Commit the winning combination for real. A conditional whose
		// winning choice did not materialize as a link (an explicit
		// Neither, or a link that is infeasible — e.g. a self loop) is
		// realized as "align neither edge" whenever that beats the natural
		// fall-through, matching how the search priced it.
		for idx, n := range s.sub {
			t := n.options[s.best[idx]].target
			linked := false
			if t != ir.NoBlock && t != n.info.id && s.c.canLink(n.info.id, t) {
				s.c.link(n.info.id, t)
				linked = true
			}
			if !linked && n.info.isCond && n.fallback < n.info.alignCost(m, n.info.f) {
				forceJump[n.info.id] = true
			}
		}
	}
	return nil
}

// search enumerates the choices of node d and everything below it. It
// returns early, with s.err set and the chain state restored, when the
// context is done.
func (s *trySearch) search(d int) {
	n := s.sub[d]
	for k := range n.options {
		if s.steps++; s.steps&ctxCheckMask == 0 && s.ctx != nil {
			if s.err = s.ctx.Err(); s.err != nil {
				return
			}
		}
		o := &n.options[k]
		s.cur[d] = k
		linked := o.target != ir.NoBlock && o.target != n.info.id && s.c.canLink(n.info.id, o.target)
		s.linked[d] = linked
		lb := o.fwd
		switch {
		case linked:
			s.undo[d] = s.c.tentativeLink(n.info.id, o.target)
			lb = math.Min(o.fwd, o.back)
		case o.target != ir.NoBlock:
			lb = n.fallback
		}
		base := 0.0
		if d > 0 {
			base = s.prefix[d-1]
		}
		s.prefix[d] = base + lb
		bound := s.prefix[d]
		for _, free := range s.sub[d+1:] {
			bound += free.lbFree
		}
		switch {
		case s.haveBest && bound >= s.bestCost:
			s.pruned++
		case d+1 < len(s.sub):
			s.search(d + 1)
		default:
			s.leaf()
		}
		if linked {
			s.c.undo(s.undo[d])
		}
		if s.err != nil {
			return
		}
	}
}

// leaf prices the complete combination in s.cur and keeps it if it is the
// first or strictly cheaper than the best so far.
func (s *trySearch) leaf() {
	s.leaves++
	total := 0.0
	for i, n := range s.sub {
		total += n.cost(s.c, s.cur[i], s.linked[i])
	}
	if !s.haveBest || total < s.bestCost {
		s.haveBest = true
		s.bestCost = total
		copy(s.best, s.cur[:len(s.sub)])
	}
}
