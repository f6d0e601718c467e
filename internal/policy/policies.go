package policy

import (
	"fmt"
	"slices"
	"sort"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
)

// Policy is a forwarding property registered with the checker. Policies
// declare which packets they "register" on via Header, so the checker
// can skip them when unrelated ECs change — the key to incremental
// policy checking. Header spaces are dataplane.Match values (the zero
// value matches everything), so policies carry no backend-specific
// handles and transfer between verifiers and backends as plain values.
type Policy interface {
	Name() string
	// Header returns the packet space the policy registers on (the zero
	// Match means the full space). The checker indexes policies by it.
	Header() dataplane.Match
	// Relevant reports whether a change to ec can affect this policy:
	// whether ec intersects Header within the checker's scope. The
	// checker answers the same question per header through the model's
	// index; Relevant is the per-EC form of that rule.
	Relevant(c *Checker, ec bdd.Node) bool
	// Eval computes the policy's satisfaction from the checker state.
	Eval(c *Checker) bool
}

// AddPolicy registers a policy and evaluates it immediately, returning
// the initial verdict. A policy of the same name is replaced.
func (c *Checker) AddPolicy(p Policy) bool {
	c.RemovePolicy(p.Name())
	c.policies[p.Name()] = p
	hdr := p.Header()
	c.byHeader[hdr] = append(c.byHeader[hdr], p.Name())
	v := p.Eval(c)
	c.verdicts[p.Name()] = v
	c.metrics.Policies.Set(int64(len(c.policies)))
	return v
}

// RemovePolicy unregisters a policy by name.
func (c *Checker) RemovePolicy(name string) {
	if p, ok := c.policies[name]; ok {
		hdr := p.Header()
		names := slices.DeleteFunc(c.byHeader[hdr], func(n string) bool { return n == name })
		if len(names) == 0 {
			delete(c.byHeader, hdr)
		} else {
			c.byHeader[hdr] = names
		}
	}
	delete(c.policies, name)
	delete(c.verdicts, name)
	c.metrics.Policies.Set(int64(len(c.policies)))
}

// Verdict returns a policy's last verdict.
func (c *Checker) Verdict(name string) (satisfied, known bool) {
	v, ok := c.verdicts[name]
	return v, ok
}

// Verdicts returns a copy of all verdicts.
func (c *Checker) Verdicts() map[string]bool {
	out := make(map[string]bool, len(c.verdicts))
	for k, v := range c.verdicts {
		out[k] = v
	}
	return out
}

// Policies returns the registered policies sorted by name, so callers
// that rebuild a checker (forks) register them deterministically.
func (c *Checker) Policies() []Policy {
	out := make([]Policy, 0, len(c.policies))
	for _, p := range c.policies {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ReachMode selects reachability semantics.
type ReachMode uint8

// Reachability modes.
const (
	// ReachAll: every packet in the header space injected at Src is
	// delivered at Dst.
	ReachAll ReachMode = iota
	// ReachSome: at least one packet is delivered at Dst.
	ReachSome
	// ReachNone: no packet is delivered at Dst (isolation).
	ReachNone
)

// Reachability is the paper's example policy shape: "only HTTP traffic
// should be allowed between subnet A and subnet B" decomposes into
// Reachability policies over header predicates.
type Reachability struct {
	PolicyName string
	Src, Dst   string
	Hdr        dataplane.Match // packet space the policy registers on
	Mode       ReachMode
}

// Name implements Policy.
func (p Reachability) Name() string { return p.PolicyName }

// Header implements Policy.
func (p Reachability) Header() dataplane.Match { return p.Hdr }

// Relevant implements Policy.
func (p Reachability) Relevant(c *Checker, ec bdd.Node) bool { return c.MatchOverlaps(p.Hdr, ec) }

// Eval implements Policy.
func (p Reachability) Eval(c *Checker) bool {
	delivered, total := 0, 0
	for _, ec := range c.ecsOf(p.Hdr) {
		total++
		if o, ok := c.OutcomeOf(ec, p.Src); ok && o.Kind == Delivered && o.At == p.Dst {
			delivered++
		}
	}
	switch p.Mode {
	case ReachAll:
		return total > 0 && delivered == total
	case ReachSome:
		return delivered > 0
	default: // ReachNone
		return delivered == 0
	}
}

// Waypoint requires every delivered path from Src to Dst (for packets in
// Hdr) to traverse Via.
type Waypoint struct {
	PolicyName string
	Src, Dst   string
	Via        string
	Hdr        dataplane.Match
}

// Name implements Policy.
func (p Waypoint) Name() string { return p.PolicyName }

// Header implements Policy.
func (p Waypoint) Header() dataplane.Match { return p.Hdr }

// Relevant implements Policy.
func (p Waypoint) Relevant(c *Checker, ec bdd.Node) bool { return c.MatchOverlaps(p.Hdr, ec) }

// Eval implements Policy.
func (p Waypoint) Eval(c *Checker) bool {
	for _, ec := range c.ecsOf(p.Hdr) {
		o, ok := c.OutcomeOf(ec, p.Src)
		if !ok || o.Kind != Delivered || o.At != p.Dst {
			continue
		}
		through := false
		for _, dev := range c.TracePath(ec, p.Src) {
			if dev == p.Via {
				through = true
				break
			}
		}
		if !through {
			return false
		}
	}
	return true
}

// LoopFree requires that no packet in Scope loops, from any device: the
// paper's example of a universal invariant.
type LoopFree struct {
	PolicyName string
	Scope      dataplane.Match
}

// Name implements Policy.
func (p LoopFree) Name() string { return p.PolicyName }

// Header implements Policy.
func (p LoopFree) Header() dataplane.Match { return p.Scope }

// Relevant implements Policy.
func (p LoopFree) Relevant(c *Checker, ec bdd.Node) bool { return c.MatchOverlaps(p.Scope, ec) }

// Eval implements Policy.
func (p LoopFree) Eval(c *Checker) bool {
	for _, ec := range c.ecsOf(p.Scope) {
		r := c.ecs[ec]
		if r == nil {
			continue
		}
		for _, o := range r.outcomes {
			if o.Kind == Looped {
				return false
			}
		}
	}
	return true
}

// BlackholeFree requires that no packet in Scope is dropped by a device
// without a route (static drop routes count as drops too).
type BlackholeFree struct {
	PolicyName string
	Scope      dataplane.Match
}

// Name implements Policy.
func (p BlackholeFree) Name() string { return p.PolicyName }

// Header implements Policy.
func (p BlackholeFree) Header() dataplane.Match { return p.Scope }

// Relevant implements Policy.
func (p BlackholeFree) Relevant(c *Checker, ec bdd.Node) bool { return c.MatchOverlaps(p.Scope, ec) }

// Eval implements Policy.
func (p BlackholeFree) Eval(c *Checker) bool {
	for _, ec := range c.ecsOf(p.Scope) {
		r := c.ecs[ec]
		if r == nil {
			continue
		}
		for _, o := range r.outcomes {
			if o.Kind == Dropped {
				return false
			}
		}
	}
	return true
}

// Explain renders a human-readable account of why a reachability-style
// check currently fails between src and dst for packets in hdr.
func (c *Checker) Explain(src, dst string, hdr dataplane.Match) string {
	for _, ec := range c.ecsOf(hdr) {
		o, ok := c.OutcomeOf(ec, src)
		if ok && o.Kind == Delivered && o.At == dst {
			continue
		}
		pkt, _ := c.WitnessIn(hdr, ec)
		path := c.TracePath(ec, src)
		if !ok {
			return fmt.Sprintf("packet %v: no outcome at %s", pkt, src)
		}
		return fmt.Sprintf("packet %v: %s at %s (path %v)", pkt, o.Kind, o.At, path)
	}
	return "all packets delivered"
}
