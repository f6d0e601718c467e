package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

// condition is one what-if the workloads enter and leave: a change and
// the change that reverts it.
type condition struct {
	change, revert netcfg.Change
}

// linkConditions lists every link's failure and, when localPref is set,
// every link's local-preference change, each with its revert, shuffled
// by seed. Every seed yields the same set; only the order differs.
func linkConditions(net *topology.Net, localPref bool, seed int64) []condition {
	var out []condition
	for _, l := range net.Topology.Links {
		out = append(out, condition{
			change: netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: true},
			revert: netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: false},
		})
		if localPref {
			peer := net.Devices[l.DevB].Intf(l.IntfB).Addr.Addr
			out = append(out, condition{
				change: netcfg.SetLocalPref{Device: l.DevA, Neighbor: peer, LocalPref: 150},
				revert: netcfg.SetLocalPref{Device: l.DevA, Neighbor: peer, LocalPref: 0},
			})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// edgeSwitches returns the fat-tree's edge switches in name order.
func edgeSwitches(net *topology.Net) []string {
	var edges []string
	for _, dev := range net.NodeNames {
		if strings.HasPrefix(dev, "edge") {
			edges = append(edges, dev)
		}
	}
	sort.Strings(edges)
	return edges
}

// densePolicies is the checker-bound suite: perPrefix reachability
// policies per host /24, each confined to its /24, with all/some/none
// modes mixed, plus no-loops and no-blackholes over the whole network.
func densePolicies(net *topology.Net, perPrefix int) []policy.Policy {
	owners := append([]string(nil), net.NodeNames...)
	sort.Strings(owners)
	edges := edgeSwitches(net)
	ps := []policy.Policy{
		policy.LoopFree{PolicyName: "no-loops", Scope: dataplane.MatchAll},
		policy.BlackholeFree{PolicyName: "no-blackholes", Scope: dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/16")}},
	}
	modes := []policy.ReachMode{policy.ReachAll, policy.ReachSome, policy.ReachNone}
	for i, dev := range owners {
		for j := 0; j < perPrefix; j++ {
			src := edges[(i*perPrefix+j*7)%len(edges)]
			if src == dev {
				src = edges[(i*perPrefix+j*7+1)%len(edges)]
			}
			ps = append(ps, policy.Reachability{
				PolicyName: fmt.Sprintf("reach-%s-%d", dev, j),
				Src:        src,
				Dst:        dev,
				Hdr:        dataplane.Match{Dst: net.HostPrefix[dev]},
				Mode:       modes[(i+j)%len(modes)],
			})
		}
	}
	return ps
}

// sweepPolicies is the spec-mining suite: every edge switch reaches
// every other edge's /24 from the first edge switch, and no packet
// loops.
func sweepPolicies(net *topology.Net) []policy.Policy {
	edges := edgeSwitches(net)
	ps := []policy.Policy{policy.LoopFree{PolicyName: "no-loops", Scope: dataplane.MatchAll}}
	for _, dst := range edges[1:] {
		ps = append(ps, policy.Reachability{
			PolicyName: "reach-" + dst,
			Src:        edges[0],
			Dst:        dst,
			Hdr:        dataplane.Match{Dst: net.HostPrefix[dst]},
			Mode:       policy.ReachAll,
		})
	}
	return ps
}

// policyText renders policies in the specification format rcserved
// reads (-policies). Only the shapes the generators above produce are
// supported.
func policyText(ps []policy.Policy) (string, error) {
	hdr := func(m dataplane.Match) string {
		if m == dataplane.MatchAll {
			return "any"
		}
		return m.Dst.String()
	}
	var b strings.Builder
	for _, p := range ps {
		switch p := p.(type) {
		case policy.Reachability:
			mode := [...]string{policy.ReachAll: "all", policy.ReachSome: "some", policy.ReachNone: "none"}[p.Mode]
			fmt.Fprintf(&b, "reach %s %s %s %s %s\n", p.PolicyName, p.Src, p.Dst, hdr(p.Hdr), mode)
		case policy.LoopFree:
			fmt.Fprintf(&b, "loopfree %s %s\n", p.PolicyName, hdr(p.Scope))
		case policy.BlackholeFree:
			fmt.Fprintf(&b, "blackholefree %s %s\n", p.PolicyName, hdr(p.Scope))
		default:
			return "", fmt.Errorf("policy %s: no text form for %T", p.Name(), p)
		}
	}
	return b.String(), nil
}
