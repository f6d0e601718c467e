// Package atom implements a Delta-net-style data plane model backend:
// the packet space is partitioned by destination address into disjoint
// intervals ("atoms"), maintained as a global sorted boundary array.
// Every installed rule prefix's endpoints are boundaries, so each atom
// is uniform with respect to every rule on every device, and one
// longest-prefix-match lookup at the atom's first address decides the
// whole atom's forwarding behaviour.
//
// Compared to the BDD backend (internal/apkeep), atoms trade generality
// for raw speed on IPv4 destination-prefix workloads: rule updates are
// binary searches and integer compares instead of BDD operations. The
// price is a restricted filter fragment — ACL lines must match on the
// destination prefix only (any source, any protocol, any port), because
// an atom spans the full non-destination header dimensions. Unsupported
// filters are rejected with ErrUnsupported before any state changes.
//
// Atoms carry stable identities: a split keeps the lower half under the
// existing ID and mints a fresh ID for the upper half, so checker-side
// caches keyed by EC remain valid across splits. Atoms are never merged;
// unlike APKeep the partition is not re-minimized (Delta-net makes the
// same trade), so behaviourally equal neighbours stay distinct — policy
// verdicts are unaffected, only the EC count differs between backends.
package atom

import (
	"errors"
	"fmt"
	"sort"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// Backend is the name the selection flags and journal metadata use.
const Backend = "atom"

// ErrUnsupported reports input outside the backend's supported fragment
// (filters matching on anything but the destination prefix).
var ErrUnsupported = errors.New("atom: unsupported by the interval backend")

// devState is one device's slice of the model.
type devState struct {
	// rules stacks the installed ports per prefix, mirroring apkeep's
	// semantics: the last element of a stack owns the prefix (duplicate
	// live rules only occur transiently inside a batch).
	rules map[netcfg.Prefix][]apkeep.Port
	// ports maps each atom to its resolved port; absent means DropPort.
	ports map[bdd.Node]apkeep.Port
}

// Model is the interval-based data plane model. It implements the same
// backend surface as *apkeep.Model (core.Model), reusing apkeep's
// vocabulary types (Port, Transfer, FilterTransfer, BatchResult) so the
// policy checker and verifier are backend-agnostic.
type Model struct {
	// bounds is the sorted list of atom start addresses (bounds[0] == 0);
	// atom i covers [bounds[i], bounds[i+1]-1], the last one through the
	// top of the address space. ids is parallel to bounds.
	bounds []uint32
	ids    []bdd.Node
	// byID maps an atom's stable ID to its start address; ecs is the
	// same key set in the shape the checker iterates.
	byID map[bdd.Node]uint32
	ecs  map[bdd.Node]struct{}
	next bdd.Node

	devs    map[string]*devState
	filters map[apkeep.FilterKey]*filterState

	transfers  []apkeep.Transfer
	ftransfers []apkeep.FilterTransfer

	metrics Metrics

	// tr is the provenance trace of the in-flight apply (nil = tracing
	// off); curRule labels the rule or binding driving the current update.
	tr      *trace.Apply
	curRule string
}

// New creates a model with a single atom covering the whole address
// space (everything dropped everywhere).
func New() *Model {
	m := &Model{
		bounds:  []uint32{0},
		ids:     []bdd.Node{1},
		byID:    map[bdd.Node]uint32{1: 0},
		ecs:     map[bdd.Node]struct{}{1: {}},
		next:    2,
		devs:    make(map[string]*devState),
		filters: make(map[apkeep.FilterKey]*filterState),
	}
	return m
}

// Backend identifies the model implementation.
func (m *Model) Backend() string { return Backend }

// Metrics are the model's live instruments (nil until Instrument; every
// method is nil-safe).
type Metrics struct {
	Splits          *obs.Counter
	Transfers       *obs.Counter
	FilterTransfers *obs.Counter
	Atoms           *obs.Gauge
}

// Instrument registers the model's counters and gauges on reg.
func (m *Model) Instrument(reg *obs.Registry) {
	m.metrics = Metrics{
		Splits:          reg.Counter("realconfig_atom_splits_total", "Atom interval splits.", nil),
		Transfers:       reg.Counter("realconfig_atom_transfers_total", "Atom port moves applied to the data plane model.", nil),
		FilterTransfers: reg.Counter("realconfig_atom_filter_transfers_total", "Atom filter-status flips from ACL updates.", nil),
		Atoms:           reg.Gauge("realconfig_atom_ecs", "Current atom partition size.", nil),
	}
	m.metrics.Atoms.Set(int64(len(m.ids)))
}

// SetTrace attaches a provenance trace to subsequent model updates.
// Pass nil to detach.
func (m *Model) SetTrace(a *trace.Apply) { m.tr = a }

// ECs returns the current atoms (live map; do not modify).
func (m *Model) ECs() map[bdd.Node]struct{} { return m.ecs }

// NumECs returns the partition size.
func (m *Model) NumECs() int { return len(m.ids) }

// PortOf returns the port an atom maps to on a device.
func (m *Model) PortOf(dev string, ec bdd.Node) apkeep.Port {
	if d := m.devs[dev]; d != nil {
		if p, ok := d.ports[ec]; ok {
			return p
		}
	}
	return apkeep.DropPort
}

func (m *Model) dev(name string) *devState {
	d := m.devs[name]
	if d == nil {
		d = &devState{
			rules: make(map[netcfg.Prefix][]apkeep.Port),
			ports: make(map[bdd.Node]apkeep.Port),
		}
		m.devs[name] = d
	}
	return d
}

// intervalAt returns the index of the atom containing address a.
func (m *Model) intervalAt(a uint32) int {
	// First boundary > a, minus one; bounds[0] == 0 so idx >= 0.
	return sort.Search(len(m.bounds), func(i int) bool { return m.bounds[i] > a }) - 1
}

// atomSpan returns the interval the atom at index i covers.
func (m *Model) atomSpan(i int) span {
	s := span{Lo: m.bounds[i], Hi: ^uint32(0)}
	if i+1 < len(m.bounds) {
		s.Hi = m.bounds[i+1] - 1
	}
	return s
}

// ensureBoundary splits the atom containing b so that b starts an atom.
// The lower half keeps the existing ID (checker caches stay valid); the
// upper half gets a fresh ID and inherits ports and filter statuses.
func (m *Model) ensureBoundary(b uint32) {
	if b == 0 {
		return
	}
	i := m.intervalAt(b)
	if m.bounds[i] == b {
		return
	}
	old := m.ids[i]
	id := m.next
	m.next++
	m.bounds = append(m.bounds, 0)
	copy(m.bounds[i+2:], m.bounds[i+1:])
	m.bounds[i+1] = b
	m.ids = append(m.ids, 0)
	copy(m.ids[i+2:], m.ids[i+1:])
	m.ids[i+1] = id
	m.byID[id] = b
	m.ecs[id] = struct{}{}
	for _, d := range m.devs {
		if p, ok := d.ports[old]; ok {
			d.ports[id] = p
		}
	}
	for _, fs := range m.filters {
		if fs.blocked[old] {
			fs.blocked[id] = true
		}
	}
	m.metrics.Splits.Inc()
	if m.tr != nil {
		m.tr.Event(obs.TrackModel, obs.EventECSplit,
			trace.U("ec", uint64(old)), trace.U("in", uint64(old)), trace.U("out", uint64(id)),
			trace.S("rule", m.curRule))
	}
}

// ownerAt resolves the longest-prefix-match owner of address a on a
// device: the top of the longest covering prefix's rule stack.
func (m *Model) ownerAt(d *devState, a uint32) apkeep.Port {
	for l := 32; l >= 0; l-- {
		p := netcfg.Prefix{Addr: netcfg.Addr(a), Len: uint8(l)}
		p.Addr &= p.Mask()
		if stack, ok := d.rules[p]; ok && len(stack) > 0 {
			return stack[len(stack)-1]
		}
	}
	return apkeep.DropPort
}

// portOf extracts the port a FIB rule forwards to.
func portOf(r dataplane.Rule) apkeep.Port {
	switch r.Action {
	case dataplane.Forward:
		return apkeep.Port{Action: dataplane.Forward, NextHop: r.NextHop, OutIntf: r.OutIntf}
	case dataplane.Deliver:
		return apkeep.Port{Action: dataplane.Deliver, OutIntf: r.OutIntf}
	default:
		return apkeep.DropPort
	}
}

// ruleLabel renders the update owning the current model change.
func ruleLabel(verb string, r dataplane.Rule) string {
	return verb + " " + r.Device + " " + r.Prefix.String() + " -> " + portOf(r).String()
}

// retarget re-resolves every atom under prefix against the device's rule
// stacks, recording transfers for atoms whose owner changed. Rule stacks
// must already reflect the update; boundaries are created as needed so
// every atom is uniform w.r.t. prefix.
func (m *Model) retarget(dev string, d *devState, prefix netcfg.Prefix) {
	s := prefixSpan(prefix)
	m.ensureBoundary(s.Lo)
	if s.Hi != ^uint32(0) {
		m.ensureBoundary(s.Hi + 1)
	}
	for i := m.intervalAt(s.Lo); i < len(m.bounds) && m.bounds[i] <= s.Hi; i++ {
		id := m.ids[i]
		old, ok := d.ports[id]
		if !ok {
			old = apkeep.DropPort
		}
		now := m.ownerAt(d, m.bounds[i])
		if old == now {
			continue
		}
		if now == apkeep.DropPort {
			delete(d.ports, id)
		} else {
			d.ports[id] = now
		}
		m.transfers = append(m.transfers, apkeep.Transfer{Device: dev, EC: id, Old: old, New: now})
		m.metrics.Transfers.Inc()
		if m.tr != nil {
			m.tr.Event(obs.TrackModel, obs.EventECTransfer,
				trace.S("device", dev), trace.U("ec", uint64(id)),
				trace.S("rule", m.curRule),
				trace.S("from", old.String()), trace.S("to", now.String()))
		}
	}
}

// InsertRule adds a forwarding rule to the model, moving the affected
// atoms to the rule's port.
func (m *Model) InsertRule(r dataplane.Rule) {
	if m.tr != nil {
		m.curRule = ruleLabel("insert", r)
	}
	d := m.dev(r.Device)
	port := portOf(r)
	stack := d.rules[r.Prefix]
	d.rules[r.Prefix] = append(stack, port)
	if len(stack) > 0 && stack[len(stack)-1] == port {
		return // same owner, nothing moves
	}
	m.retarget(r.Device, d, r.Prefix)
}

// DeleteRule removes a forwarding rule; its space falls back to the
// remaining owner (a duplicate rule, the longest covering prefix, or
// drop). Deleting a rule the model does not hold returns
// apkeep.ErrAbsentRule.
func (m *Model) DeleteRule(r dataplane.Rule) error {
	if m.tr != nil {
		m.curRule = ruleLabel("delete", r)
	}
	d := m.dev(r.Device)
	port := portOf(r)
	stack := d.rules[r.Prefix]
	idx := -1
	for i, p := range stack {
		if p == port {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: %v", apkeep.ErrAbsentRule, r)
	}
	wasOwner := idx == len(stack)-1
	stack = append(stack[:idx], stack[idx+1:]...)
	if len(stack) == 0 {
		delete(d.rules, r.Prefix)
	} else {
		d.rules[r.Prefix] = stack
	}
	if !wasOwner {
		return nil
	}
	m.retarget(r.Device, d, r.Prefix)
	return nil
}

// TakeTransfers returns and clears the accumulated transfers.
func (m *Model) TakeTransfers() []apkeep.Transfer {
	out := m.transfers
	m.transfers = nil
	return out
}

// Lookup returns the port a concrete packet takes on a device, resolved
// through the atom containing its destination.
func (m *Model) Lookup(dev string, pkt bdd.Packet) apkeep.Port {
	return m.PortOf(dev, m.ids[m.intervalAt(uint32(pkt.Dst))])
}

// ContainsPacket reports whether pkt belongs to atom ec.
func (m *Model) ContainsPacket(ec bdd.Node, pkt bdd.Packet) bool {
	i := m.intervalAt(uint32(pkt.Dst))
	return m.ids[i] == ec
}

// MatchOverlaps implements policy.Model: an atom spans the full source,
// protocol and port dimensions, so it intersects m's packet space iff
// the destination ranges overlap.
func (m *Model) MatchOverlaps(match dataplane.Match, ec bdd.Node) bool {
	start, ok := m.byID[ec]
	if !ok {
		return false
	}
	return prefixSpan(match.Dst).overlaps(m.atomSpan(m.intervalAt(start)))
}

// ECsOverlapping implements policy.Model: a binary search finds the
// atom holding the start of match's destination span, and the atoms up
// to its end follow in address order. Atoms span every non-destination
// dimension, so the answer is exact. It reads the live boundary array,
// so it stays exact across splits that keep the lower half's ID.
func (m *Model) ECsOverlapping(match dataplane.Match) []bdd.Node {
	d := prefixSpan(match.Dst)
	end := sort.Search(len(m.bounds), func(i int) bool { return m.bounds[i] > d.Hi })
	return append([]bdd.Node(nil), m.ids[m.intervalAt(d.Lo):end]...)
}

// Witness implements policy.Model.
func (m *Model) Witness(ec bdd.Node) (bdd.Packet, bool) {
	start, ok := m.byID[ec]
	if !ok {
		return bdd.Packet{}, false
	}
	return bdd.Packet{Dst: netcfg.Addr(start)}, true
}

// WitnessIn implements policy.Model: a packet in the intersection of
// match and the atom, with unconstrained dimensions at their match base
// (mirroring the BDD backend's zero-bit witnesses).
func (m *Model) WitnessIn(match dataplane.Match, ec bdd.Node) (bdd.Packet, bool) {
	start, ok := m.byID[ec]
	if !ok {
		return bdd.Packet{}, false
	}
	s, d := m.atomSpan(m.intervalAt(start)), prefixSpan(match.Dst)
	if !s.overlaps(d) {
		return bdd.Packet{}, false
	}
	dst := s.Lo
	if d.Lo > dst {
		dst = d.Lo
	}
	return bdd.Packet{
		Dst:     netcfg.Addr(dst),
		Src:     match.Src.Addr,
		Proto:   match.Proto,
		DstPort: match.DstPortLo,
	}, true
}

// CheckPartition verifies the atom invariants: sorted unique boundaries
// starting at zero, consistent ID maps, and every stored port equal to
// the rule stacks' LPM resolution. Meant for tests.
func (m *Model) CheckPartition() error {
	if len(m.bounds) == 0 || m.bounds[0] != 0 {
		return fmt.Errorf("atom: boundary array must start at 0")
	}
	if len(m.bounds) != len(m.ids) {
		return fmt.Errorf("atom: bounds/ids length mismatch: %d vs %d", len(m.bounds), len(m.ids))
	}
	if len(m.ids) != len(m.byID) || len(m.ids) != len(m.ecs) {
		return fmt.Errorf("atom: id maps out of sync: %d ids, %d byID, %d ecs", len(m.ids), len(m.byID), len(m.ecs))
	}
	for i, b := range m.bounds {
		if i > 0 && b <= m.bounds[i-1] {
			return fmt.Errorf("atom: boundaries not strictly increasing at %d", i)
		}
		id := m.ids[i]
		if start, ok := m.byID[id]; !ok || start != b {
			return fmt.Errorf("atom: byID[%d] = %d, want %d", id, start, b)
		}
		if _, ok := m.ecs[id]; !ok {
			return fmt.Errorf("atom: id %d missing from EC set", id)
		}
	}
	for dev, d := range m.devs {
		for i, b := range m.bounds {
			want := m.ownerAt(d, b)
			got, ok := d.ports[m.ids[i]]
			if !ok {
				got = apkeep.DropPort
			}
			if got != want {
				return fmt.Errorf("atom: %s atom %d [%s]: stored port %v, LPM says %v",
					dev, m.ids[i], netcfg.Addr(b), got, want)
			}
		}
		for id := range d.ports {
			if _, ok := m.ecs[id]; !ok {
				return fmt.Errorf("atom: %s holds port for dead atom %d", dev, id)
			}
		}
	}
	for k, fs := range m.filters {
		for id := range fs.blocked {
			if _, ok := m.ecs[id]; !ok {
				return fmt.Errorf("atom: filter %v blocks dead atom %d", k, id)
			}
		}
	}
	return nil
}
