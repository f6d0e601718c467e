package apkeep

import (
	"sort"

	"realconfig/internal/bdd"
	"realconfig/internal/netcfg"
)

// This file holds the model's two spatial indexes, which turn the
// per-update cost from O(model size) into O(change footprint):
//
//   - ecIndex is a Delta-net-style destination-space index. The
//     destination IP space [0, 2^32) is partitioned into intervals at
//     rule-prefix boundaries, and every interval knows the set of ECs
//     that may contain a packet with a destination in it. A rule update
//     confined to one prefix then only examines the ECs registered on
//     the prefix's intervals instead of the whole partition.
//
//   - prefixTrie is a per-device binary trie over installed rule
//     prefixes. The two LPM queries the model needs — "every strictly
//     longer prefix inside p with rules" (effective) and "the longest
//     strictly shorter prefix covering p" (owner) — become bit walks
//     plus a subtree visit instead of scans over every installed prefix.
//
// The ecIndex is conservative: an EC may be registered on intervals it
// no longer touches (splits along non-destination fields keep both
// children everywhere the parent was), but an EC intersecting an
// interval in destination space is ALWAYS registered on it. Candidate
// sets therefore over-approximate, never miss; the BDD intersection
// test inside split discards false positives.

// dstRange is an inclusive destination-address interval.
type dstRange struct {
	lo, hi uint32
}

// dstHint bounds a split predicate's destination footprint. exact
// records that the predicate covers the range completely in
// destination space (pred == DstPrefix(range)), in which case the
// out-half of a split provably has no destination inside the range and
// can be dropped from the range's intervals.
type dstHint struct {
	dstRange
	exact bool
}

// prefixRange returns the inclusive address range a prefix covers.
func prefixRange(p netcfg.Prefix) dstRange {
	lo := uint32(p.Addr)
	if p.Len == 0 {
		return dstRange{0, ^uint32(0)}
	}
	return dstRange{lo, lo | ^uint32(0)>>p.Len}
}

// ivl is one destination-space interval: it starts at start and runs to
// the next interval's start (the last runs to the end of the space).
// ecs holds every EC that may have a destination inside it.
type ivl struct {
	start uint32
	ecs   map[bdd.Node]struct{}
}

// ecIndex maps destination intervals to candidate ECs and back.
type ecIndex struct {
	starts []uint32 // sorted interval start points; starts[0] == 0
	ivls   map[uint32]*ivl
	byEC   map[bdd.Node]map[*ivl]struct{}
}

func newECIndex(root bdd.Node) *ecIndex {
	iv := &ivl{start: 0, ecs: map[bdd.Node]struct{}{root: {}}}
	return &ecIndex{
		starts: []uint32{0},
		ivls:   map[uint32]*ivl{0: iv},
		byEC:   map[bdd.Node]map[*ivl]struct{}{root: {iv: {}}},
	}
}

// findIdx returns the index of the interval containing address a.
func (x *ecIndex) findIdx(a uint32) int {
	// First start strictly greater than a, minus one.
	return sort.Search(len(x.starts), func(i int) bool { return x.starts[i] > a }) - 1
}

// at returns the candidate ECs for one concrete destination address
// (live map; do not modify).
func (x *ecIndex) at(a uint32) map[bdd.Node]struct{} {
	return x.ivls[x.starts[x.findIdx(a)]].ecs
}

// ensureBoundary makes b an interval start point, splitting the
// covering interval. Boundaries are never removed; their number is
// bounded by the distinct rule-prefix edges ever installed.
func (x *ecIndex) ensureBoundary(b uint32) {
	if b == 0 {
		return
	}
	idx := x.findIdx(b)
	if x.starts[idx] == b {
		return
	}
	cover := x.ivls[x.starts[idx]]
	iv := &ivl{start: b, ecs: make(map[bdd.Node]struct{}, len(cover.ecs))}
	for ec := range cover.ecs {
		iv.ecs[ec] = struct{}{}
		x.byEC[ec][iv] = struct{}{}
	}
	x.ivls[b] = iv
	x.starts = append(x.starts, 0)
	copy(x.starts[idx+2:], x.starts[idx+1:])
	x.starts[idx+1] = b
}

// prepare aligns interval boundaries with r so every interval is fully
// inside or fully outside it.
func (x *ecIndex) prepare(r dstRange) {
	x.ensureBoundary(r.lo)
	if r.hi != ^uint32(0) {
		x.ensureBoundary(r.hi + 1)
	}
}

// candidates returns the distinct ECs registered on the intervals that
// meet r. After prepare(r) those intervals lie inside r; without it the
// two end intervals may stretch past r, so the set still holds every EC
// with a destination in r, plus possibly some without.
func (x *ecIndex) candidates(r dstRange) []bdd.Node {
	var out []bdd.Node
	seen := make(map[bdd.Node]struct{})
	for idx := x.findIdx(r.lo); idx < len(x.starts) && x.starts[idx] <= r.hi; idx++ {
		for ec := range x.ivls[x.starts[idx]].ecs {
			if _, dup := seen[ec]; !dup {
				seen[ec] = struct{}{}
				out = append(out, ec)
			}
		}
	}
	return out
}

// splitEC replaces parent with its two halves: in (inside the split
// predicate) goes on the parent's intervals within r, out goes on the
// parent's intervals outside r, plus — unless exact — those within
// (the split predicate may constrain non-destination fields, leaving
// out-packets with destinations in r). prepare(r) must have been
// called before the parent's membership was read.
func (x *ecIndex) splitEC(parent, in, out bdd.Node, hint dstHint) {
	ivs := x.byEC[parent]
	delete(x.byEC, parent)
	inSet := make(map[*ivl]struct{})
	outSet := make(map[*ivl]struct{})
	for iv := range ivs {
		delete(iv.ecs, parent)
		inside := iv.start >= hint.lo && iv.start <= hint.hi
		if inside {
			iv.ecs[in] = struct{}{}
			inSet[iv] = struct{}{}
		}
		if !inside || !hint.exact {
			iv.ecs[out] = struct{}{}
			outSet[iv] = struct{}{}
		}
	}
	x.byEC[in] = inSet
	x.byEC[out] = outSet
}

// replace re-registers every interval of old under merged (merge path).
func (x *ecIndex) replace(old, merged bdd.Node) {
	ivs := x.byEC[old]
	delete(x.byEC, old)
	dst := x.byEC[merged]
	if dst == nil {
		dst = make(map[*ivl]struct{}, len(ivs))
		x.byEC[merged] = dst
	}
	for iv := range ivs {
		delete(iv.ecs, old)
		iv.ecs[merged] = struct{}{}
		dst[iv] = struct{}{}
	}
}

// fullRange covers the whole destination space: the hint for splits
// whose predicate is not destination-bounded (filter boundaries).
var fullRange = dstHint{dstRange: dstRange{0, ^uint32(0)}}

// --- per-device prefix trie -------------------------------------------------

// trieNode is one node of a prefixTrie; depth in the trie is prefix
// length, so the node for 10.0.0.0/8 sits 8 edges below the root.
type trieNode struct {
	child [2]*trieNode
	stack []Port // rules installed at exactly this prefix (nil = none)
	n     int    // prefixes with rules in this subtree, including self
}

// prefixTrie indexes one device's installed rule prefixes.
type prefixTrie struct {
	root trieNode
}

func addrBit(a netcfg.Addr, depth int) int {
	return int(uint32(a)>>(31-depth)) & 1
}

// get returns the rule stack installed at exactly p (nil if none).
func (t *prefixTrie) get(p netcfg.Prefix) []Port {
	n := &t.root
	for d := 0; d < int(p.Len); d++ {
		n = n.child[addrBit(p.Addr, d)]
		if n == nil {
			return nil
		}
	}
	return n.stack
}

// set installs stack (non-empty) at p.
func (t *prefixTrie) set(p netcfg.Prefix, stack []Port) {
	path := make([]*trieNode, 0, 33)
	n := &t.root
	path = append(path, n)
	for d := 0; d < int(p.Len); d++ {
		b := addrBit(p.Addr, d)
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
		path = append(path, n)
	}
	fresh := n.stack == nil
	n.stack = stack
	if fresh {
		for _, pn := range path {
			pn.n++
		}
	}
}

// remove deletes the stack at p, pruning emptied branches.
func (t *prefixTrie) remove(p netcfg.Prefix) {
	path := make([]*trieNode, 0, 33)
	n := &t.root
	path = append(path, n)
	for d := 0; d < int(p.Len); d++ {
		n = n.child[addrBit(p.Addr, d)]
		if n == nil {
			return
		}
		path = append(path, n)
	}
	if n.stack == nil {
		return
	}
	n.stack = nil
	for _, pn := range path {
		pn.n--
	}
	for d := len(path) - 1; d > 0; d-- {
		if path[d].n > 0 {
			break
		}
		path[d-1].child[addrBit(p.Addr, d-1)] = nil
	}
}

// owner returns the stack of the longest strictly shorter prefix
// covering p (nil if none): an O(p.Len) walk from the root.
func (t *prefixTrie) owner(p netcfg.Prefix) []Port {
	var best []Port
	n := &t.root
	for d := 0; d < int(p.Len); d++ {
		if n.stack != nil {
			best = n.stack
		}
		n = n.child[addrBit(p.Addr, d)]
		if n == nil {
			return best
		}
	}
	return best
}

// longerWithin visits every strictly longer prefix inside p that has
// rules, in trie order. visit returning false stops the walk early
// (used once the effective predicate is already empty).
func (t *prefixTrie) longerWithin(p netcfg.Prefix, visit func(q netcfg.Prefix, stack []Port) bool) {
	n := &t.root
	for d := 0; d < int(p.Len); d++ {
		n = n.child[addrBit(p.Addr, d)]
		if n == nil {
			return
		}
	}
	// Visit the subtree below p's node, excluding the node itself.
	var dfs func(n *trieNode, addr uint32, depth int) bool
	dfs = func(n *trieNode, addr uint32, depth int) bool {
		if n == nil {
			return true
		}
		if n.stack != nil && !visit(netcfg.Prefix{Addr: netcfg.Addr(addr), Len: uint8(depth)}, n.stack) {
			return false
		}
		if depth == 32 {
			return true
		}
		if !dfs(n.child[0], addr, depth+1) {
			return false
		}
		return dfs(n.child[1], addr|1<<(31-depth), depth+1)
	}
	if int(p.Len) < 32 {
		addr := uint32(p.Addr)
		dfs(n.child[0], addr, int(p.Len)+1)
		dfs(n.child[1], addr|1<<(31-int(p.Len)), int(p.Len)+1)
	}
}

// walk visits every installed prefix (reference scans and tests).
func (t *prefixTrie) walk(visit func(q netcfg.Prefix, stack []Port)) {
	var dfs func(n *trieNode, addr uint32, depth int)
	dfs = func(n *trieNode, addr uint32, depth int) {
		if n == nil {
			return
		}
		if n.stack != nil {
			visit(netcfg.Prefix{Addr: netcfg.Addr(addr), Len: uint8(depth)}, n.stack)
		}
		if depth == 32 {
			return
		}
		dfs(n.child[0], addr, depth+1)
		dfs(n.child[1], addr|1<<(31-depth), depth+1)
	}
	dfs(&t.root, 0, 0)
}
