package policy

// JoinMode says how per-shard verdicts of a destination-partitioned
// policy combine into the global verdict. The shard layer scopes each
// unit's checker to that unit's slice of the destination space; because
// the slices partition the full space and equivalence classes refine
// packet behaviour, evaluating the policy under the per-unit scopes and
// joining the verdicts is exactly the unsharded evaluation.
type JoinMode uint8

const (
	// JoinAll: the policy holds iff it holds on every shard it
	// registered on; registering nowhere (empty header space) is
	// vacuously satisfied. Universally quantified policies (isolation,
	// waypointing, loop and blackhole freedom) join this way.
	JoinAll JoinMode = iota
	// JoinAny: the policy holds iff some registered shard satisfies it;
	// registering nowhere is violated. Existential policies (ReachSome)
	// join this way.
	JoinAny
	// JoinAllWitness: JoinAll, except that registering nowhere is
	// violated — ReachAll demands a nonempty header space actually
	// delivered, so an empty registration set cannot hold.
	JoinAllWitness
)

// Sharded is implemented by policies that can be partitioned across
// destination-space shards. The shard layer skips units whose slice
// misses the policy's Header entirely; Join says how the per-shard
// verdicts recombine. Policies are plain values with Match-based
// headers, so the same value registers on every unit — each unit's
// scoped checker confines evaluation to its own slice.
type Sharded interface {
	Policy
	// Join returns the policy's verdict combination mode.
	Join() JoinMode
}

// JoinVerdicts folds per-shard verdicts under mode. verdicts holds one
// entry per shard the policy registered on (possibly none).
func JoinVerdicts(mode JoinMode, verdicts []bool) bool {
	switch mode {
	case JoinAny:
		for _, v := range verdicts {
			if v {
				return true
			}
		}
		return false
	case JoinAllWitness:
		if len(verdicts) == 0 {
			return false
		}
		fallthrough
	default: // JoinAll
		for _, v := range verdicts {
			if !v {
				return false
			}
		}
		return true
	}
}

// Join implements Sharded. ReachAll needs a delivery witness (total > 0
// in at least one shard); ReachSome is existential; ReachNone is
// universal isolation.
func (p Reachability) Join() JoinMode {
	switch p.Mode {
	case ReachSome:
		return JoinAny
	case ReachAll:
		return JoinAllWitness
	default:
		return JoinAll
	}
}

// Join implements Sharded.
func (p Waypoint) Join() JoinMode { return JoinAll }

// Join implements Sharded.
func (p LoopFree) Join() JoinMode { return JoinAll }

// Join implements Sharded.
func (p BlackholeFree) Join() JoinMode { return JoinAll }
