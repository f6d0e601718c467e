// Package policy is RealConfig's incremental network policy checker. It
// consumes data plane model changes (EC port transfers from the apkeep
// model) and recomputes forwarding outcomes only for affected equivalence
// classes, maintaining the two maps the paper describes: each EC's
// forwarding behaviour (paths), and each node pair's deliverable ECs.
// Registered policies (reachability, waypoint, loop-freedom,
// blackhole-freedom) are indexed by their header space: each update asks
// the model once per distinct header which ECs it overlaps
// (Model.ECsOverlapping, answered from the backend's destination index)
// and rechecks a header's policies only if one of those ECs is affected.
// Policy evaluation iterates the same per-header EC lists.
package policy

import (
	"slices"
	"sort"
	"strings"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// Kind classifies the fate of a packet injected at a device.
type Kind uint8

// Outcome kinds.
const (
	// Delivered: the packet reached a device that delivers its
	// destination locally.
	Delivered Kind = iota
	// Dropped: a device had no route (or a drop route) for it.
	Dropped
	// Filtered: an ACL discarded it on the way.
	Filtered
	// Looped: it entered a forwarding loop.
	Looped
)

func (k Kind) String() string {
	switch k {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Filtered:
		return "filtered"
	default:
		return "looped"
	}
}

// Outcome is the fate of an EC's packets injected at some device.
type Outcome struct {
	Kind Kind
	// At is where the fate was sealed: the delivering device, the
	// dropping device, or the device whose filter discarded the packet.
	At string
}

// Pair is a directed (source, destination-device) pair.
type Pair struct {
	Src, Dst string
}

// ecResult caches one EC's forwarding behaviour. Its delivered pairs
// are the (src, At) of its Delivered outcomes.
type ecResult struct {
	outcomes map[string]Outcome
	// next is the EC's functional forwarding graph: each device's
	// successor (devices whose packets terminate locally are absent).
	next map[string]string
}

// delivers reports whether the EC's packets injected at src are
// delivered at dst.
func (r *ecResult) delivers(src, dst string) bool {
	o, ok := r.outcomes[src]
	return ok && o.Kind == Delivered && o.At == dst
}

// Checker incrementally maintains forwarding outcomes and policy
// verdicts over a data plane model backend.
type Checker struct {
	model Model

	// scope confines relevance tests and witnesses to a shard's slice of
	// the destination space (scoped=false means the full space). Set via
	// SetScope; requires a ScopedModel backend.
	scope  bdd.Node
	scoped bool

	devices []string
	// ingress maps (device, egress interface) to the neighbor and its
	// ingress interface, for ACL lookups along walks.
	ingress map[[2]string][2]string

	ecs   map[bdd.Node]*ecResult
	pairs map[Pair]map[bdd.Node]struct{}

	policies map[string]Policy
	verdicts map[string]bool
	// byHeader groups the registered policy names by Header(): an update
	// resolves each header's ECs once and rechecks its whole group iff
	// one of them is affected.
	byHeader map[dataplane.Match][]string
	// hdrECs memoizes ecsOf per header during one Update (nil outside).
	hdrECs map[dataplane.Match][]bdd.Node

	// parallelism is the worker count for EC walks (<=1 = sequential).
	parallelism int
	// walkers hold the walks' reusable state, one per worker; reach is
	// merge's reusable reverse-reachability state.
	walkers []*walker
	reach   reachState

	// metrics are the checker's live instruments (nil until Instrument;
	// every method is nil-safe).
	metrics CheckerMetrics

	// tr is the provenance trace of the in-flight apply (nil = tracing
	// off). Set per-apply via SetTrace.
	tr *trace.Apply
}

// CheckerMetrics are the checker's live instruments: cumulative work
// counters plus the registered/derived-state gauges.
type CheckerMetrics struct {
	// Updates counts Update calls; PoliciesChecked policy
	// re-evaluations; AffectedECs EC behaviour recomputations;
	// AffectedPairs (src, dst) pairs whose deliverable set changed.
	Updates         *obs.Counter
	PoliciesChecked *obs.Counter
	AffectedECs     *obs.Counter
	AffectedPairs   *obs.Counter
	// Policies is the number of registered policies; Pairs the number of
	// (src, dst) pairs with at least one deliverable EC.
	Policies *obs.Gauge
	Pairs    *obs.Gauge
}

// Instrument registers the checker's counters and gauges on reg.
func (c *Checker) Instrument(reg *obs.Registry) {
	c.metrics = CheckerMetrics{
		Updates:         reg.Counter("realconfig_policy_updates_total", "Incremental policy-check batches processed.", nil),
		PoliciesChecked: reg.Counter("realconfig_policy_checks_total", "Policy re-evaluations performed (registered policies intersecting an affected EC).", nil),
		AffectedECs:     reg.Counter("realconfig_policy_affected_ecs_total", "ECs whose forwarding behaviour was recomputed.", nil),
		AffectedPairs:   reg.Counter("realconfig_policy_affected_pairs_total", "(src, dst) pairs whose deliverable-EC set changed.", nil),
		Policies:        reg.Gauge("realconfig_policy_policies", "Registered policies.", nil),
		Pairs:           reg.Gauge("realconfig_policy_pairs", "(src, dst) pairs with at least one deliverable EC.", nil),
	}
	c.metrics.Policies.Set(int64(len(c.policies)))
	c.metrics.Pairs.Set(int64(len(c.pairs)))
}

// SetParallelism enables the paper's section-6 "parallelize verification
// over independent ECs" optimization: affected ECs' forwarding walks are
// recomputed by n workers. Walks only read the model, so this is safe;
// results are merged sequentially, keeping output deterministic.
func (c *Checker) SetParallelism(n int) { c.parallelism = n }

// NewChecker creates a checker over a model backend. Call SetTopology
// before the first Update.
func NewChecker(m Model) *Checker {
	return &Checker{
		model:    m,
		ingress:  make(map[[2]string][2]string),
		ecs:      make(map[bdd.Node]*ecResult),
		pairs:    make(map[Pair]map[bdd.Node]struct{}),
		policies: make(map[string]Policy),
		verdicts: make(map[string]bool),
		byHeader: make(map[dataplane.Match][]string),
	}
}

// Model returns the backend the checker evaluates against.
func (c *Checker) Model() Model { return c.model }

// SetScope confines the checker's relevance tests and witnesses to a
// slice of the destination space, given as a predicate in the backend's
// BDD table. The shard layer scopes each unit's checker to its slice so
// a policy's header space only "registers" where it intersects the
// slice. Panics if the backend does not support scoping (sharding is a
// bdd-backend feature).
func (c *Checker) SetScope(space bdd.Node) {
	if _, ok := c.model.(ScopedModel); !ok {
		panic("policy: SetScope requires a ScopedModel backend (sharding is bdd-only)")
	}
	c.scope = space
	c.scoped = true
}

// MatchOverlaps reports whether m's packet space intersects ec, confined
// to the checker's scope when one is set.
func (c *Checker) MatchOverlaps(m dataplane.Match, ec bdd.Node) bool {
	if c.scoped {
		return c.model.(ScopedModel).MatchOverlapsIn(m, c.scope, ec)
	}
	return c.model.MatchOverlaps(m, ec)
}

// ecsOf returns the live ECs that hdr's packet space intersects,
// confined to the checker's scope when one is set: the ECs a policy
// with that header registers on. Within an Update the answer is
// memoized per header. The slice may be shared; do not modify it.
func (c *Checker) ecsOf(hdr dataplane.Match) []bdd.Node {
	if ecs, ok := c.hdrECs[hdr]; ok {
		return ecs
	}
	ecs := c.model.ECsOverlapping(hdr)
	if c.scoped {
		sm := c.model.(ScopedModel)
		ecs = slices.DeleteFunc(ecs, func(ec bdd.Node) bool { return !sm.MatchOverlapsIn(hdr, c.scope, ec) })
	}
	if c.hdrECs != nil {
		c.hdrECs[hdr] = ecs
	}
	return ecs
}

// WitnessIn returns a concrete packet in the intersection of m and ec,
// confined to the checker's scope when one is set.
func (c *Checker) WitnessIn(m dataplane.Match, ec bdd.Node) (bdd.Packet, bool) {
	if c.scoped {
		return c.model.(ScopedModel).WitnessInScope(m, c.scope, ec)
	}
	return c.model.WitnessIn(m, ec)
}

// SetTopology installs the device list and adjacency view used for walks
// and filter lookups. Call again whenever the topology changes.
func (c *Checker) SetTopology(devices []string, adjs []dataplane.Adjacency) {
	c.devices = append([]string(nil), devices...)
	sort.Strings(c.devices)
	c.ingress = make(map[[2]string][2]string, len(adjs))
	for _, a := range adjs {
		c.ingress[[2]string{a.Dev, a.LocalIntf}] = [2]string{a.Peer, a.PeerIntf}
	}
}

// Ingress resolves a (device, egress interface) to the neighbor and its
// ingress interface, per the installed topology.
func (c *Checker) Ingress(dev, outIntf string) ([2]string, bool) {
	in, ok := c.ingress[[2]string{dev, outIntf}]
	return in, ok
}

// PairECs returns the ECs deliverable from src to dst (live; do not
// modify).
func (c *Checker) PairECs(src, dst string) map[bdd.Node]struct{} {
	return c.pairs[Pair{Src: src, Dst: dst}]
}

// NumPairs returns how many (src, dst) pairs currently have at least one
// deliverable EC.
func (c *Checker) NumPairs() int { return len(c.pairs) }

// OutcomeOf returns the cached fate of ec injected at src.
func (c *Checker) OutcomeOf(ec bdd.Node, src string) (Outcome, bool) {
	r := c.ecs[ec]
	if r == nil {
		return Outcome{}, false
	}
	o, ok := r.outcomes[src]
	return o, ok
}

// PolicyEvent reports a policy whose satisfaction flipped.
type PolicyEvent struct {
	Policy    string
	Satisfied bool
}

// Result summarizes one incremental check.
type Result struct {
	// AffectedECs is the number of ECs whose behaviour was recomputed.
	AffectedECs int
	// AffectedPairs lists pairs whose deliverable-EC set changed.
	AffectedPairs []Pair
	// Events are policy satisfaction flips (including first
	// evaluations of newly violated policies).
	Events []PolicyEvent
	// PoliciesChecked counts policy re-evaluations performed.
	PoliciesChecked int
}

// Update processes a batch of model changes: it recomputes outcomes for
// affected ECs (moved ports, filter flips, splits), updates the pair
// map, and rechecks exactly the registered policies whose header space
// intersects an affected EC. When the model re-minimized its partition
// (AutoMerge), pass the merge events so transfers on merged-away classes
// are attributed to their surviving union.
func (c *Checker) Update(transfers []apkeep.Transfer, ftransfers []apkeep.FilterTransfer, merges ...apkeep.MergeEvent) *Result {
	res := &Result{}
	alias := make(map[bdd.Node]bdd.Node, 2*len(merges))
	for _, me := range merges {
		alias[me.A] = me.Result
		alias[me.B] = me.Result
	}
	resolve := func(ec bdd.Node) bdd.Node {
		for {
			next, ok := alias[ec]
			if !ok {
				return ec
			}
			ec = next
		}
	}
	affected := make(map[bdd.Node]struct{})
	// changedDevs tracks, per EC, the devices whose behaviour for that
	// EC changed; paths through them are the "modified paths" whose end
	// points define the affected pairs (the paper's #Pairs metric).
	changedDevs := make(map[bdd.Node]map[string]struct{})
	mark := func(ec bdd.Node, dev string) {
		affected[ec] = struct{}{}
		set := changedDevs[ec]
		if set == nil {
			set = make(map[string]struct{})
			changedDevs[ec] = set
		}
		set[dev] = struct{}{}
	}
	for _, t := range transfers {
		mark(resolve(t.EC), t.Device)
	}
	for _, t := range ftransfers {
		mark(resolve(t.EC), t.Key.Device)
	}
	// ECs created by splits (present in the model, absent here) must be
	// computed; vanished ECs (split away) must be retired.
	current := c.model.ECs()
	for ec := range current {
		if _, ok := c.ecs[ec]; !ok {
			affected[ec] = struct{}{}
		}
	}
	for ec := range c.ecs {
		if _, ok := current[ec]; !ok {
			c.retire(ec, res)
		}
	}
	live := make([]bdd.Node, 0, len(affected))
	for ec := range affected {
		if _, ok := current[ec]; ok {
			live = append(live, ec)
		} // else: transferred then split away within the batch
	}
	results := c.walkAll(live)
	for i, ec := range live {
		c.merge(ec, results[i], changedDevs[ec], res)
		res.AffectedECs++
	}
	slices.SortFunc(res.AffectedPairs, comparePairs)
	res.AffectedPairs = slices.Compact(res.AffectedPairs)

	// Recheck the policies registered on affected packets: a header's
	// group is due iff one of its live ECs is affected. Under tracing the
	// rechecks run in sorted name order.
	c.hdrECs = make(map[dataplane.Match][]bdd.Node, len(c.byHeader))
	var due []string
	if len(live) > 0 {
		for hdr, names := range c.byHeader {
			if slices.ContainsFunc(c.ecsOf(hdr), func(ec bdd.Node) bool {
				_, ok := affected[ec]
				return ok
			}) {
				due = append(due, names...)
			}
		}
	}
	if c.tr != nil {
		sort.Strings(due)
	}
	for _, name := range due {
		c.recheck(name, affected, res)
	}
	c.hdrECs = nil
	sort.Slice(res.Events, func(i, j int) bool { return res.Events[i].Policy < res.Events[j].Policy })
	c.metrics.Updates.Inc()
	c.metrics.PoliciesChecked.Add(uint64(res.PoliciesChecked))
	c.metrics.AffectedECs.Add(uint64(res.AffectedECs))
	c.metrics.AffectedPairs.Add(uint64(len(res.AffectedPairs)))
	c.metrics.Pairs.Set(int64(len(c.pairs)))
	return res
}

// recheck re-evaluates one due policy, recording a verdict flip (or a
// first verdict) as an event and, under tracing, the recheck with the
// affected ECs that made it due.
func (c *Checker) recheck(name string, affected map[bdd.Node]struct{}, res *Result) {
	p := c.policies[name]
	res.PoliciesChecked++
	now := p.Eval(c)
	was, known := c.verdicts[name]
	if !known || was != now {
		c.verdicts[name] = now
		res.Events = append(res.Events, PolicyEvent{Policy: name, Satisfied: now})
	}
	if c.tr != nil {
		var relECs []bdd.Node
		for _, ec := range c.ecsOf(p.Header()) {
			if _, ok := affected[ec]; ok {
				relECs = append(relECs, ec)
			}
		}
		from := "unchecked"
		if known {
			from = verdictStr(was)
		}
		c.tr.Event(obs.TrackPolicy, obs.EventPolicyRecheck,
			trace.S("policy", name), trace.S("from", from), trace.S("to", verdictStr(now)),
			trace.S("ecs", joinNodes(relECs)))
	}
}

// retire removes a vanished EC and its pair contributions.
func (c *Checker) retire(ec bdd.Node, res *Result) {
	r := c.ecs[ec]
	if r == nil {
		return
	}
	delete(c.ecs, ec)
	for src, o := range r.outcomes {
		if o.Kind != Delivered {
			continue
		}
		p := Pair{Src: src, Dst: o.At}
		if set := c.pairs[p]; set != nil {
			delete(set, ec)
			if len(set) == 0 {
				delete(c.pairs, p)
			}
			res.AffectedPairs = append(res.AffectedPairs, p)
		}
	}
}

// merge installs a freshly walked result for an EC: it refreshes the
// pair map with the delta and collects the pairs whose paths were
// modified — the end points of every old or new path traversing a device
// whose behaviour for this EC changed. Update sorts and deduplicates the
// collected pairs.
func (c *Checker) merge(ec bdd.Node, r *ecResult, devs map[string]struct{}, res *Result) {
	old := c.ecs[ec]
	c.ecs[ec] = r
	// Pair map maintenance (delivery-set delta).
	for src, o := range r.outcomes {
		if o.Kind != Delivered || (old != nil && old.delivers(src, o.At)) {
			continue
		}
		p := Pair{Src: src, Dst: o.At}
		set := c.pairs[p]
		if set == nil {
			set = make(map[bdd.Node]struct{})
			c.pairs[p] = set
		}
		set[ec] = struct{}{}
	}
	if old != nil {
		for src, o := range old.outcomes {
			if o.Kind != Delivered || r.delivers(src, o.At) {
				continue
			}
			p := Pair{Src: src, Dst: o.At}
			if set := c.pairs[p]; set != nil {
				delete(set, ec)
				if len(set) == 0 {
					delete(c.pairs, p)
				}
			}
		}
	}
	// Modified paths: sources whose old or new walk traverses a changed
	// device. A pure split changed no device, so it modified no path.
	if len(devs) > 0 {
		rs := &c.reach
		rs.reset()
		if old != nil {
			rs.reverseReach(old.next, devs)
		}
		rs.reverseReach(r.next, devs)
		for s := range rs.sources {
			if old != nil {
				if o, ok := old.outcomes[s]; ok && o.Kind == Delivered {
					res.AffectedPairs = append(res.AffectedPairs, Pair{Src: s, Dst: o.At})
				}
			}
			if o, ok := r.outcomes[s]; ok && o.Kind == Delivered {
				res.AffectedPairs = append(res.AffectedPairs, Pair{Src: s, Dst: o.At})
			}
		}
	}
}

// reachState is merge's reusable reverse-reachability state. Merges run
// sequentially, so one per checker suffices.
type reachState struct {
	// sources accumulates, across the old and new graph of one EC, every
	// device that reaches a changed device.
	sources map[string]struct{}
	// rev is the reverse graph of the last walked next map; its keys
	// persist across calls so their slices are reused.
	rev   map[string][]string
	seen  map[string]struct{}
	stack []string
}

// reset empties sources for the next EC.
func (rs *reachState) reset() {
	if rs.sources == nil {
		rs.sources = make(map[string]struct{})
		rs.rev = make(map[string][]string)
		rs.seen = make(map[string]struct{})
	}
	clear(rs.sources)
}

// reverseReach adds to rs.sources every device that reaches one of the
// targets by following next pointers (targets included).
func (rs *reachState) reverseReach(next map[string]string, targets map[string]struct{}) {
	for d, srcs := range rs.rev {
		rs.rev[d] = srcs[:0]
	}
	for s, d := range next {
		rs.rev[d] = append(rs.rev[d], s)
	}
	clear(rs.seen)
	stack := rs.stack[:0]
	for d := range targets {
		rs.sources[d] = struct{}{}
		rs.seen[d] = struct{}{}
		stack = append(stack, d)
	}
	// DFS over reverse edges.
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range rs.rev[d] {
			if _, ok := rs.seen[s]; ok {
				continue
			}
			rs.seen[s] = struct{}{}
			rs.sources[s] = struct{}{}
			stack = append(stack, s)
		}
	}
	rs.stack = stack
}

// comparePairs orders pairs by source, then destination.
func comparePairs(a, b Pair) int {
	if a.Src != b.Src {
		return strings.Compare(a.Src, b.Src)
	}
	return strings.Compare(a.Dst, b.Dst)
}
