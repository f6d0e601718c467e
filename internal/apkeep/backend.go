package apkeep

import (
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
)

// This file is the model's policy.Model / policy.ScopedModel surface:
// backend-neutral match predicates evaluated symbolically in the model's
// own BDD table.

// Backend identifies the model implementation for CLI selection, journal
// metadata and reports.
func (m *Model) Backend() string { return "bdd" }

// Pred interns match's packet space as a predicate in the model's table.
// Predicates are cached per model: relevance tests re-intern the same
// handful of policy header spaces on every update.
func (m *Model) Pred(match dataplane.Match) bdd.Node {
	if p, ok := m.preds[match]; ok {
		return p
	}
	p := m.H.Match(match)
	if m.preds == nil {
		m.preds = make(map[dataplane.Match]bdd.Node)
	}
	m.preds[match] = p
	return p
}

// MatchOverlaps implements policy.Model.
func (m *Model) MatchOverlaps(match dataplane.Match, ec bdd.Node) bool {
	return m.H.Overlaps(m.Pred(match), ec)
}

// ECsOverlapping implements policy.Model: the live ECs whose packet
// space intersects match, ascending. The destination index narrows the
// candidates to the ECs registered on the intervals match.Dst touches
// (a read-only query: no boundary is added), and one Overlaps test
// against the cached predicate discards the index's false positives.
func (m *Model) ECsOverlapping(match dataplane.Match) []bdd.Node {
	var out []bdd.Node
	if match == dataplane.MatchAll {
		out = make([]bdd.Node, 0, len(m.ecs))
		for ec := range m.ecs {
			out = append(out, ec)
		}
	} else {
		pred := m.Pred(match)
		cands := m.idx.candidates(prefixRange(match.Dst))
		out = cands[:0]
		for _, ec := range cands {
			if _, live := m.ecs[ec]; live && m.H.Overlaps(pred, ec) {
				out = append(out, ec)
			}
		}
	}
	sortNodes(out)
	return out
}

// MatchOverlapsIn implements policy.ScopedModel: match ∧ space ∧ ec ≠ ∅.
func (m *Model) MatchOverlapsIn(match dataplane.Match, space bdd.Node, ec bdd.Node) bool {
	return m.H.Overlaps(m.H.And(m.Pred(match), space), ec)
}

// Witness implements policy.Model.
func (m *Model) Witness(ec bdd.Node) (bdd.Packet, bool) { return m.H.Witness(ec) }

// WitnessIn implements policy.Model.
func (m *Model) WitnessIn(match dataplane.Match, ec bdd.Node) (bdd.Packet, bool) {
	return m.H.Witness(m.H.And(m.Pred(match), ec))
}

// WitnessInScope implements policy.ScopedModel.
func (m *Model) WitnessInScope(match dataplane.Match, space bdd.Node, ec bdd.Node) (bdd.Packet, bool) {
	return m.H.Witness(m.H.And(m.H.And(m.Pred(match), space), ec))
}

// ContainsPacket reports whether pkt belongs to ec.
func (m *Model) ContainsPacket(ec bdd.Node, pkt bdd.Packet) bool {
	return m.H.Contains(ec, pkt)
}
