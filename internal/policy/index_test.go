package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/atom"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// batchModel is the update surface both backends share.
type batchModel interface {
	Model
	ApplyBatch(changes []dd.Entry[dataplane.Rule], order apkeep.Order) (*apkeep.BatchResult, error)
	UpdateFilters(changes []dd.Entry[dataplane.FilterRule]) error
}

// scanECs is the brute-force form of ECsOverlapping: every live EC
// tested one by one.
func scanECs(m Model, match dataplane.Match) []bdd.Node {
	var out []bdd.Node
	for ec := range m.ECs() {
		if m.MatchOverlaps(match, ec) {
			out = append(out, ec)
		}
	}
	slices.Sort(out)
	return out
}

// scanModel and scanScopedModel answer ECsOverlapping by scanning, so a
// checker over them evaluates policies without the backend's index.
type scanModel struct{ Model }

func (m scanModel) ECsOverlapping(match dataplane.Match) []bdd.Node { return scanECs(m.Model, match) }

type scanScopedModel struct{ ScopedModel }

func (m scanScopedModel) ECsOverlapping(match dataplane.Match) []bdd.Node {
	return scanECs(m.ScopedModel, match)
}

// refChecker is the recheck rule the header index replaces: a policy is
// rechecked iff Relevant holds for at least one affected EC, tested for
// every policy × affected EC. It keeps its own outcomes in a checker
// with no policies registered, whose model scans instead of indexing.
type refChecker struct {
	c        *Checker
	policies map[string]Policy
	verdicts map[string]bool
}

func (r *refChecker) add(p Policy) bool {
	r.policies[p.Name()] = p
	v := p.Eval(r.c)
	r.verdicts[p.Name()] = v
	return v
}

func (r *refChecker) remove(name string) {
	delete(r.policies, name)
	delete(r.verdicts, name)
}

// update mirrors Checker.Update's result for one batch.
func (r *refChecker) update(br *apkeep.BatchResult) (checked int, events []PolicyEvent) {
	alias := make(map[bdd.Node]bdd.Node)
	for _, me := range br.Merges {
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
	for _, t := range br.Transfers {
		affected[resolve(t.EC)] = struct{}{}
	}
	for _, t := range br.FilterTransfers {
		affected[resolve(t.EC)] = struct{}{}
	}
	for ec := range r.c.model.ECs() {
		if _, ok := r.c.ecs[ec]; !ok {
			affected[ec] = struct{}{}
		}
	}
	r.c.Update(br.Transfers, br.FilterTransfers, br.Merges...)
	for name, p := range r.policies {
		relevant := false
		for ec := range affected {
			if p.Relevant(r.c, ec) {
				relevant = true
				break
			}
		}
		if !relevant {
			continue
		}
		checked++
		now := p.Eval(r.c)
		if was, known := r.verdicts[name]; !known || was != now {
			r.verdicts[name] = now
			events = append(events, PolicyEvent{Policy: name, Satisfied: now})
		}
	}
	slices.SortFunc(events, func(a, b PolicyEvent) int { return strings.Compare(a.Policy, b.Policy) })
	return checked, events
}

// indexPolicies builds a suite whose headers overlap in every way the
// index must resolve: the full space, nested and sibling prefixes, a
// /25 inside a routed /24, and (bdd only) matches on source, protocol
// and port. Several policies share each header.
func indexPolicies(devs []string, bddOnly bool) []Policy {
	hdrs := []dataplane.Match{
		{Dst: netcfg.MustPrefix("10.0.0.0/24")},
		{Dst: netcfg.MustPrefix("10.0.0.0/25")},
		{Dst: netcfg.MustPrefix("10.0.1.128/25")},
		{Dst: netcfg.MustPrefix("10.0.2.0/24")},
		{Dst: netcfg.MustPrefix("10.0.0.0/8")},
		{Dst: netcfg.MustPrefix("192.168.0.0/16")},
		{Dst: netcfg.MustPrefix("172.16.0.0/12")},
	}
	if bddOnly {
		hdrs = append(hdrs,
			dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22},
			dataplane.Match{Proto: netcfg.ProtoTCP, Dst: netcfg.MustPrefix("10.0.1.0/24"), DstPortLo: 20, DstPortHi: 80},
			dataplane.Match{Src: netcfg.MustPrefix("10.0.2.0/24"), Dst: netcfg.MustPrefix("10.0.0.0/24")},
		)
	}
	ps := []Policy{
		LoopFree{PolicyName: "no-loops", Scope: dataplane.MatchAll},
		BlackholeFree{PolicyName: "no-blackholes", Scope: dataplane.MatchAll},
		LoopFree{PolicyName: "no-loops-10", Scope: dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/8")}},
	}
	modes := []ReachMode{ReachAll, ReachSome, ReachNone}
	for i, hdr := range hdrs {
		for j, dst := range devs[:3] {
			ps = append(ps, Reachability{
				PolicyName: fmt.Sprintf("reach-%d-%s", i, dst),
				Src:        devs[(i+j+1)%len(devs)], Dst: dst, Hdr: hdr, Mode: modes[(i+j)%len(modes)],
			})
		}
		ps = append(ps,
			Waypoint{PolicyName: fmt.Sprintf("via-%d", i), Src: devs[0], Dst: devs[2], Via: devs[1], Hdr: hdr},
			BlackholeFree{PolicyName: fmt.Sprintf("bh-%d", i), Scope: hdr},
		)
	}
	return ps
}

// indexRule picks a random rule; prefixes include /25 halves so atoms
// split inside routed /24s, where the lower half keeps its ID.
func indexRule(rng *rand.Rand, devs []string) dataplane.Rule {
	if rng.Intn(3) > 0 {
		return randomRule(rng, devs)
	}
	r := randomRule(rng, devs)
	r.Prefix = netcfg.MustPrefix([]string{"10.0.0.0/25", "10.0.1.128/25", "10.0.2.0/25", "10.0.0.64/26"}[rng.Intn(4)])
	return r
}

// indexFilter picks a random filter line. The atom backend accepts
// destination-only matches; bdd also gets randomFilter's SSH denies.
func indexFilter(rng *rand.Rand, devs []string, bddOnly bool) dataplane.FilterRule {
	if bddOnly && rng.Intn(2) == 0 {
		return randomFilter(rng, devs)
	}
	return dataplane.FilterRule{
		Device: devs[rng.Intn(len(devs))],
		Intf:   []string{"l", "r"}[rng.Intn(2)],
		Dir:    dataplane.Direction(rng.Intn(2)),
		Seq:    10,
		Action: netcfg.Deny,
		Match:  dataplane.Match{Dst: netcfg.MustPrefix([]string{"10.0.1.0/24", "10.0.0.0/25", "192.168.0.0/16"}[rng.Intn(3)])},
	}
}

// TestHeaderIndexRechecksLikeRelevant feeds the same random batches to
// the indexed checker and to refChecker, on both backends, scoped and
// unscoped, sequential and parallel, and requires the same rechecks,
// events and verdicts after every batch. Policies are removed and
// re-registered under other headers along the way, so the index's
// groups must follow.
func TestHeaderIndexRechecksLikeRelevant(t *testing.T) {
	devs := []string{"a", "b", "c", "d", "e"}
	adjs := ringAdjs(devs)
	cases := []struct {
		name    string
		backend string
		scoped  bool
		par     int
	}{
		{"bdd", "bdd", false, 1},
		{"bdd/par4", "bdd", false, 4},
		{"atom", "atom", false, 1},
		{"atom/par4", "atom", false, 4},
		{"bdd/scoped", "bdd", true, 1},
		{"bdd/scoped/par4", "bdd", true, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			partial, flips := 0, 0 // steps that rechecked some but not all; events seen
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				bddOnly := tc.backend == "bdd"
				var m batchModel
				var refModel Model
				if bddOnly {
					am := apkeep.New()
					am.AutoMerge = seed%2 == 1
					m, refModel = am, scanScopedModel{am}
				} else {
					m = atom.New()
					refModel = scanModel{m}
				}
				c := NewChecker(m)
				ref := &refChecker{c: NewChecker(refModel), policies: map[string]Policy{}, verdicts: map[string]bool{}}
				if tc.scoped {
					space := m.(*apkeep.Model).Pred(dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/23")})
					c.SetScope(space)
					ref.c.SetScope(space)
				}
				c.SetParallelism(tc.par)
				for _, x := range []*Checker{c, ref.c} {
					x.SetTopology(devs, adjs)
					x.Update(nil, nil)
				}
				pols := indexPolicies(devs, bddOnly)
				for _, p := range pols {
					if got, want := c.AddPolicy(p), ref.add(p); got != want {
						t.Fatalf("seed %d: AddPolicy(%s) = %v, reference %v", seed, p.Name(), got, want)
					}
				}

				rules := map[dataplane.Rule]bool{}
				filters := map[dataplane.FilterRule]bool{}
				for step := 0; step < 40; step++ {
					if step%10 == 5 {
						// Re-register one policy under another header.
						p := pols[rng.Intn(len(pols))]
						q := Reachability{PolicyName: p.Name(), Src: "a", Dst: "c", Hdr: pols[rng.Intn(len(pols))].Header()}
						c.RemovePolicy(p.Name())
						ref.remove(p.Name())
						if got, want := c.AddPolicy(q), ref.add(q); got != want {
							t.Fatalf("seed %d step %d: re-AddPolicy(%s) = %v, reference %v", seed, step, q.Name(), got, want)
						}
					}
					var rb []dd.Entry[dataplane.Rule]
					var fb []dd.Entry[dataplane.FilterRule]
					for n := 1 + rng.Intn(3); n > 0; n-- {
						if rng.Intn(4) == 0 {
							f := indexFilter(rng, devs, bddOnly)
							diff := dd.Diff(1)
							if filters[f] {
								diff = -1
							}
							filters[f] = !filters[f]
							fb = append(fb, dd.Entry[dataplane.FilterRule]{Val: f, Diff: diff})
							continue
						}
						r := indexRule(rng, devs)
						if rules[r] {
							rb = append(rb, dd.Entry[dataplane.Rule]{Val: r, Diff: -1})
							delete(rules, r)
							continue
						}
						conflict := false
						for ex := range rules {
							conflict = conflict || (ex.Device == r.Device && ex.Prefix == r.Prefix)
						}
						if !conflict {
							rb = append(rb, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
							rules[r] = true
						}
					}
					if err := m.UpdateFilters(fb); err != nil {
						t.Fatal(err)
					}
					br, err := m.ApplyBatch(rb, apkeep.InsertFirst)
					if err != nil {
						t.Fatal(err)
					}
					res := c.Update(br.Transfers, br.FilterTransfers, br.Merges...)
					checked, events := ref.update(br)
					if res.PoliciesChecked != checked {
						t.Fatalf("seed %d step %d: PoliciesChecked = %d, reference %d", seed, step, res.PoliciesChecked, checked)
					}
					if !reflect.DeepEqual(res.Events, events) {
						t.Fatalf("seed %d step %d: events %v, reference %v", seed, step, res.Events, events)
					}
					if got := c.Verdicts(); !reflect.DeepEqual(got, ref.verdicts) {
						t.Fatalf("seed %d step %d: verdicts %v, reference %v", seed, step, got, ref.verdicts)
					}
					if checked > 0 && checked < len(ref.policies) {
						partial++
					}
					flips += len(events)
				}
			}
			if partial == 0 || flips == 0 {
				t.Fatalf("%d partial rechecks, %d events: the walks do not tell the rules apart", partial, flips)
			}
		})
	}
}

// TestAffectedPairsSortedUnique changes a device on the path of several
// ECs that share their end points: every EC reports the same pairs, and
// the result must list each once, in order.
func TestAffectedPairsSortedUnique(t *testing.T) {
	m := apkeep.New()
	devs := []string{"a", "b", "c"}
	var batch []dd.Entry[dataplane.Rule]
	for i := 0; i < 6; i++ {
		p := netcfg.Prefix{Addr: netcfg.MustAddr("10.9.0.0") + netcfg.Addr(i)<<8, Len: 24}
		batch = append(batch,
			dd.Entry[dataplane.Rule]{Val: dataplane.Rule{Device: "a", Prefix: p, Action: dataplane.Forward, NextHop: "b", OutIntf: "eth0"}, Diff: 1},
			dd.Entry[dataplane.Rule]{Val: dataplane.Rule{Device: "b", Prefix: p, Action: dataplane.Forward, NextHop: "c", OutIntf: "eth1"}, Diff: 1},
			dd.Entry[dataplane.Rule]{Val: dataplane.Rule{Device: "c", Prefix: p, Action: dataplane.Deliver, OutIntf: "lo0"}, Diff: 1},
		)
	}
	if _, err := m.ApplyBatch(batch, apkeep.InsertFirst); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(m)
	c.SetTopology(devs, nil)
	c.Update(nil, nil)

	// b now drops all six /24s at once: each EC loses (a,c) and (b,c).
	var change []dd.Entry[dataplane.Rule]
	for i := 0; i < 6; i++ {
		p := netcfg.Prefix{Addr: netcfg.MustAddr("10.9.0.0") + netcfg.Addr(i)<<8, Len: 24}
		change = append(change,
			dd.Entry[dataplane.Rule]{Val: dataplane.Rule{Device: "b", Prefix: p, Action: dataplane.Forward, NextHop: "c", OutIntf: "eth1"}, Diff: -1},
			dd.Entry[dataplane.Rule]{Val: dataplane.Rule{Device: "b", Prefix: p, Action: dataplane.Drop}, Diff: 1},
		)
	}
	br, err := m.ApplyBatch(change, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Update(br.Transfers, br.FilterTransfers, br.Merges...)
	if res.AffectedECs < 2 {
		t.Fatalf("affected ECs = %d, want several sharing end points", res.AffectedECs)
	}
	want := []Pair{{Src: "a", Dst: "c"}, {Src: "b", Dst: "c"}}
	if !reflect.DeepEqual(res.AffectedPairs, want) {
		t.Errorf("affected pairs = %v, want %v", res.AffectedPairs, want)
	}
}
