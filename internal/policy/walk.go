package policy

import (
	"sync"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
)

// walkAll computes results for a batch of ECs, in parallel when the
// checker's parallelism is enabled and the batch is large enough to pay
// for the fan-out. Walks only read the model, so workers are safe; each
// worker reuses its own walker, and the caller merges results
// sequentially.
func (c *Checker) walkAll(ecs []bdd.Node) []*ecResult {
	results := make([]*ecResult, len(ecs))
	workers := max(c.parallelism, 1)
	if len(ecs) < 2*workers {
		workers = 1
	}
	for len(c.walkers) < workers {
		c.walkers = append(c.walkers, &walker{state: make(map[string]uint8, len(c.devices))})
	}
	if workers == 1 {
		for i, ec := range ecs {
			results[i] = c.walkers[0].walk(c, ec)
		}
		return results
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for _, w := range c.walkers[:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = w.walk(c, ecs[i])
			}
		}()
	}
	for i := range ecs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// walker holds one worker's scratch state, reused across walks.
type walker struct {
	state map[string]uint8
	chain []string
}

// walk computes the EC's fate from every device by traversing its
// functional forwarding graph once, with memoization: each device has at
// most one successor for a given EC, so every node on a traversal chain
// shares the chain's terminal outcome, and chains that close on
// themselves (or join an in-progress chain) are loops.
func (w *walker) walk(c *Checker, ec bdd.Node) *ecResult {
	r := &ecResult{
		outcomes: make(map[string]Outcome, len(c.devices)),
		next:     make(map[string]string, len(c.devices)),
	}
	const (
		unvisited = 0
		inChain   = 1
		done      = 2
	)
	state := w.state
	clear(state)

	for _, start := range c.devices {
		if state[start] == done {
			continue
		}
		chain := w.chain[:0]
		cur := start
		var terminal Outcome
	traverse:
		for {
			switch state[cur] {
			case done:
				terminal = r.outcomes[cur]
				break traverse
			case inChain:
				terminal = Outcome{Kind: Looped, At: cur}
				break traverse
			}
			state[cur] = inChain
			chain = append(chain, cur)

			port := c.model.PortOf(cur, ec)
			switch port.Action {
			case dataplane.Deliver:
				terminal = Outcome{Kind: Delivered, At: cur}
				break traverse
			case dataplane.Drop:
				terminal = Outcome{Kind: Dropped, At: cur}
				break traverse
			}
			// Forward: check the egress filter here and the ingress
			// filter at the neighbor.
			if c.model.Blocked(cur, port.OutIntf, dataplane.Out, ec) {
				terminal = Outcome{Kind: Filtered, At: cur}
				break traverse
			}
			next := port.NextHop
			if in, ok := c.ingress[[2]string{cur, port.OutIntf}]; ok {
				next = in[0]
				r.next[cur] = next // the packet reaches next's door
				if c.model.Blocked(in[0], in[1], dataplane.In, ec) {
					terminal = Outcome{Kind: Filtered, At: in[0]}
					break traverse
				}
			} else {
				r.next[cur] = next
			}
			cur = next
		}
		for _, dev := range chain {
			state[dev] = done
			r.outcomes[dev] = terminal
		}
		w.chain = chain
	}
	return r
}

// TracePath returns the devices an EC's packets visit starting at src,
// ending at the device where the fate is sealed. Used by waypoint
// policies and violation explanations.
func (c *Checker) TracePath(ec bdd.Node, src string) []string {
	var path []string
	seen := make(map[string]bool)
	cur := src
	for !seen[cur] {
		seen[cur] = true
		path = append(path, cur)
		port := c.model.PortOf(cur, ec)
		if port.Action != dataplane.Forward {
			return path
		}
		if c.model.Blocked(cur, port.OutIntf, dataplane.Out, ec) {
			return path
		}
		next := port.NextHop
		if in, ok := c.ingress[[2]string{cur, port.OutIntf}]; ok {
			if c.model.Blocked(in[0], in[1], dataplane.In, ec) {
				return append(path, in[0])
			}
			next = in[0]
		}
		cur = next
	}
	return path
}

// Witness produces a concrete packet demonstrating an EC (for violation
// reports).
func (c *Checker) Witness(ec bdd.Node) (bdd.Packet, bool) { return c.model.Witness(ec) }
