package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/core"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/routing"
	"realconfig/internal/simulate"
	"realconfig/internal/topology"
)

// span is one timed interval of the traced run. Spans of one op share
// Op; a layer span's Parent is the index of its op's root span (-1 for
// the root itself).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// policyCounts tallies the checker's calls into policies.
type policyCounts struct {
	relevant, evals int
	evalTime        time.Duration
}

// countedPolicy forwards every method of a registered policy, counting
// Relevant calls (untimed: they are too cheap to time one by one) and
// timing Eval calls. It implements policy.Sharded like the built-in
// policies, so the checker treats it as it would the original.
type countedPolicy struct {
	inner policy.Sharded
	n     *policyCounts
}

func (p countedPolicy) Name() string            { return p.inner.Name() }
func (p countedPolicy) Header() dataplane.Match { return p.inner.Header() }
func (p countedPolicy) Join() policy.JoinMode   { return p.inner.Join() }

func (p countedPolicy) Relevant(c *policy.Checker, ec bdd.Node) bool {
	p.n.relevant++
	return p.inner.Relevant(c, ec)
}

func (p countedPolicy) Eval(c *policy.Checker) bool {
	t0 := time.Now()
	ok := p.inner.Eval(c)
	p.n.evalTime += time.Since(t0)
	p.n.evals++
	return ok
}

// pipeline re-drives core.Verifier.SetNetwork's call sequence through
// the public components, with a span around each layer.
type pipeline struct {
	gen     *routing.Generator
	model   core.Model
	checker *policy.Checker
	cur     *netcfg.Network
	counts  policyCounts
	tr      *tracer
}

// opStats are the per-op counts of the layers, summed over the run.
type opStats struct {
	ops, entries, nodeRuns, iterations, rulesChanged int
	transfers, affectedECs, ecs                      int
	checked, events, checkAffectedECs, pairs         int
	allocObjects, allocBytes                         uint64
}

func newPipeline(net *netcfg.Network, ps []policy.Policy) (*pipeline, error) {
	m := apkeep.New()
	m.AutoMerge = true // as core's bdd backend
	p := &pipeline{
		gen:   routing.New(routing.Options{MaxIter: verifierOptions.MaxIter, DetectOscillation: verifierOptions.DetectOscillation}),
		model: m,
		tr:    &tracer{t0: time.Now()},
	}
	p.checker = policy.NewChecker(p.model)
	p.checker.SetParallelism(verifierOptions.Parallel)
	if _, err := p.setNetwork(net, -1, nil); err != nil {
		return nil, err
	}
	for _, pol := range ps {
		sp, ok := pol.(policy.Sharded)
		if !ok {
			return nil, fmt.Errorf("policy %s (%T) does not implement policy.Sharded", pol.Name(), pol)
		}
		p.checker.AddPolicy(countedPolicy{inner: sp, n: &p.counts})
	}
	return p, nil
}

// apply mirrors core.Verifier.Apply for one change.
func (p *pipeline) apply(ch netcfg.Change, op int, st *opStats) error {
	root := p.tr.begin("op", op, -1)
	s := p.tr.begin("netcfg", op, root)
	next := p.cur.Clone()
	if err := ch.Apply(next); err != nil {
		return err
	}
	p.tr.end(s)
	_, err := p.setNetwork(next, root, st)
	p.tr.end(root)
	return err
}

// setNetwork mirrors core.Verifier.SetNetwork, recording layer spans
// under the op's root span (root < 0: the untraced initial load).
func (p *pipeline) setNetwork(net *netcfg.Network, root int, st *opStats) (*policy.Result, error) {
	begin := func(name string) int {
		if root < 0 {
			return -1
		}
		return p.tr.begin(name, p.tr.spans[root].Op, root)
	}
	end := func(i int) {
		if i >= 0 {
			p.tr.end(i)
		}
	}
	s := begin("netcfg")
	if p.cur != nil {
		netcfg.DiffNetworks(p.cur, net)
	}
	end(s)

	s = begin("routing")
	p.gen.SetNetwork(net)
	stats, err := p.gen.Step()
	if err != nil {
		return nil, err
	}
	rules := p.gen.FIBChanges()
	filters := p.gen.FilterChanges()
	end(s)

	s = begin("model")
	if err := p.model.UpdateFilters(filters); err != nil {
		return nil, err
	}
	res, err := p.model.ApplyBatch(rules, verifierOptions.Order)
	if err != nil {
		return nil, err
	}
	end(s)

	s = begin("policy")
	p.checker.SetTopology(net.DeviceNames(), dataplane.Adjacencies(net))
	cres := p.checker.Update(res.Transfers, res.FilterTransfers, res.Merges...)
	end(s)

	s = begin("netcfg")
	p.cur = net.Clone()
	end(s)

	if st != nil {
		st.ops++
		st.entries += stats.Entries
		st.nodeRuns += stats.NodeRuns
		st.iterations += stats.Iterations
		for _, e := range rules {
			st.rulesChanged += int(max(e.Diff, -e.Diff))
		}
		st.transfers += len(res.Transfers)
		st.affectedECs += res.DistinctECs()
		st.ecs += p.model.NumECs()
		st.checked += cres.PoliciesChecked
		st.events += len(cres.Events)
		st.checkAffectedECs += cres.AffectedECs
		st.pairs += len(cres.AffectedPairs)
	}
	return cres, nil
}

// opRecord is what the measured pass keeps of one op for the checking
// pass: the change, the pipeline's verdicts as a bit set over the sorted
// policy names and, after a change, a fingerprint of its FIB.
type opRecord struct {
	ch       netcfg.Change
	verdicts []uint64
	fib      uint64
	hasFIB   bool
}

// runTraced is the per-layer run of an in-process workload. A measured
// pass drives the conditions through the re-driven pipeline alone; an
// untimed pass then feeds the same ops to a core.Verifier, so the GC and
// allocation counts cover the pipeline only. After every op the two
// must agree on every verdict, and after every change the pipeline's FIB
// must equal simulate.Run's from-scratch data plane.
func runTraced(spec inprocSpec, cfg runConfig, o *outcome) error {
	net, err := topology.FatTree(cfg.k, spec.mode)
	if err != nil {
		return err
	}
	ps := spec.policies(net, cfg)
	p, err := newPipeline(net.Network.Clone(), ps)
	if err != nil {
		return err
	}
	names := make([]string, len(ps))
	for i, pol := range ps {
		names[i] = pol.Name()
	}
	sort.Strings(names)
	initial := verdictBits(p.checker, names)
	conds := linkConditions(net, spec.localPref, cfg.seed)

	p.counts = policyCounts{}
	var st opStats
	var incrMs []float64
	var records []opRecord
	var h maphash.Hash
	runtime.GC()
	gcStart := readRuntime()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.window; i++ {
		c := conds[i%len(conds)]
		var incr time.Duration
		for step, ch := range []netcfg.Change{c.change, c.revert} {
			before := readRuntime()
			first := len(p.tr.spans)
			err := p.apply(ch, len(records), &st)
			after := readRuntime()
			o.attempted++
			if err != nil {
				o.failed++
				return fmt.Errorf("pipeline apply %v: %w", ch, err)
			}
			st.allocObjects += after.objects - before.objects
			st.allocBytes += after.bytes - before.bytes
			root := p.tr.spans[first]
			incr += time.Duration(root.End - root.Start)
			rec := opRecord{ch: ch, verdicts: verdictBits(p.checker, names), hasFIB: step == 0}
			if rec.hasFIB {
				rec.fib = fibPrint(&h, p.gen.FIB())
			}
			records = append(records, rec)
		}
		incrMs = append(incrMs, ms(incr))
	}
	gcEnd := readRuntime()

	// Checking passes. The first replays the ops through a core.Verifier,
	// timing its applies as the overhead yardstick; the second replays the
	// changes on the network alone and runs simulate.Run after each one.
	ref := core.New(verifierOptions)
	if _, err := ref.Load(net.Network.Clone()); err != nil {
		return err
	}
	for _, pol := range ps {
		ref.AddPolicy(pol)
	}
	if d := diffBits(names, verdictBits(ref.Checker(), names), initial); d != "" {
		o.fail("initial verdicts of the re-driven pipeline differ from core: %s", d)
	}
	var refTime, stageGen, stageModel, stagePolicy time.Duration
	for op, rec := range records {
		t0 := time.Now()
		rep, err := ref.Apply(rec.ch)
		refTime += time.Since(t0)
		if err != nil {
			return fmt.Errorf("core apply %v: %w", rec.ch, err)
		}
		stageGen += rep.Timing.Generate
		stageModel += rep.Timing.ModelUpdate
		stagePolicy += rep.Timing.PolicyCheck
		if d := diffBits(names, verdictBits(ref.Checker(), names), rec.verdicts); d != "" {
			o.fail("op %d (%v): pipeline verdicts differ from core: %s", op, rec.ch, d)
		}
	}
	var simMs []float64
	cur := net.Network.Clone()
	for op, rec := range records {
		if err := rec.ch.Apply(cur); err != nil {
			return err
		}
		if !rec.hasFIB {
			continue
		}
		t0 := time.Now()
		want, err := simulate.Run(cur)
		simMs = append(simMs, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		var print uint64
		for r := range want.Rules {
			print += ruleHash(&h, r)
		}
		if print != rec.fib {
			o.fail("op %d (%v): incremental FIB differs from simulate.Run", op, rec.ch)
		}
	}

	layers := map[string]time.Duration{}
	var wall, self time.Duration
	for _, s := range p.tr.spans {
		d := time.Duration(s.End - s.Start)
		if s.Parent < 0 {
			wall += d
			self += d
		} else {
			layers[s.Name] += d
			self -= d
		}
	}
	n := float64(st.ops)
	perOp := func(x int) float64 { return float64(x) / n }
	v := o.values
	v["netcfg.clone_diff_ms"] = ms(layers["netcfg"]) / n
	v["routing.step_ms"] = ms(layers["routing"]) / n
	v["routing.rules_changed"] = perOp(st.rulesChanged)
	v["dd.entries"] = perOp(st.entries)
	v["dd.node_runs"] = perOp(st.nodeRuns)
	v["dd.iterations"] = perOp(st.iterations)
	v["alloc.objects_per_op"] = float64(st.allocObjects) / n
	v["alloc.mb_per_op"] = float64(st.allocBytes) / n / (1 << 20)
	v["gc.cpu_ratio"] = (gcEnd.gcCPU - gcStart.gcCPU) / (gcEnd.totalCPU - gcStart.totalCPU)
	v["model.apply_ms"] = ms(layers["model"]) / n
	v["model.transfers"] = perOp(st.transfers)
	v["model.affected_ecs"] = perOp(st.affectedECs)
	v["model.ecs"] = perOp(st.ecs)
	v["policy.update_ms"] = ms(layers["policy"]) / n
	v["policy.relevance_tests"] = perOp(p.counts.relevant)
	v["policy.evals"] = perOp(p.counts.evals)
	v["policy.eval_ms"] = ms(p.counts.evalTime) / n
	v["policy.affected_ecs"] = perOp(st.checkAffectedECs)
	v["policy.affected_pairs"] = perOp(st.pairs)
	v["policy.checked_ratio"] = float64(st.checked) / n / float64(len(ps))
	v["policy.flip_ratio"] = float64(st.events) / float64(max(st.checked, 1))
	v["simulate.full_ms"] = mean(simMs)
	v["incr_over_scratch_ratio"] = mean(incrMs) / mean(simMs)
	v["stage.generate_ms"] = ms(stageGen) / n
	v["stage.model_update_ms"] = ms(stageModel) / n
	v["stage.policy_check_ms"] = ms(stagePolicy) / n
	v["trace.residual_ratio"] = float64(self) / float64(wall)
	v["trace.overhead_ratio"] = float64(wall-refTime) / float64(refTime)
	// The in-process workloads have no server, journal, snapshot,
	// replica or open-loop generator: those layers do no work here.
	for _, m := range []string{"server.queue_wait_ms", "server.apply_ms", "server.http_ms", "server.read_ms",
		"journal.append_ms", "journal.fsync_ms", "snap.publishes", "snap.capture_ms",
		"repl.catchup_s", "load.late_p99_ms", "load.read_p90_ms", "load.read_p99_ms", "load.dropped"} {
		v[m] = 0
	}
	o.samples["simulate.full_ms"], o.samples["incr_over_scratch_ratio"] = len(simMs), len(simMs)
	return writeSpans(filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", spec.name, cfg.seed)), p.tr.spans)
}

// verdictBits returns c's verdicts over names as a bit set (bit i set
// when names[i] is satisfied).
func verdictBits(c *policy.Checker, names []string) []uint64 {
	bits := make([]uint64, (len(names)+63)/64)
	for i, name := range names {
		if ok, _ := c.Verdict(name); ok {
			bits[i/64] |= 1 << (i % 64)
		}
	}
	return bits
}

// diffBits names the first policy on which two verdict bit sets over
// names differ ("" when equal).
func diffBits(names []string, want, got []uint64) string {
	for i, name := range names {
		w, g := want[i/64]>>(i%64)&1, got[i/64]>>(i%64)&1
		if w != g {
			return fmt.Sprintf("%s: %v vs %v", name, w == 1, g == 1)
		}
	}
	return ""
}

// fibPrint is an order-independent 64-bit fingerprint of the rules
// present in fib, weighted by multiplicity (the sum of their ruleHash),
// so a FIB can be compared with a later from-scratch build without
// keeping a copy.
func fibPrint(h *maphash.Hash, fib map[dataplane.Rule]dd.Diff) uint64 {
	var sum uint64
	for r, d := range fib {
		if d > 0 {
			sum += ruleHash(h, r) * uint64(d)
		}
	}
	return sum
}

func ruleHash(h *maphash.Hash, r dataplane.Rule) uint64 {
	h.Reset()
	h.WriteString(r.Device)
	h.WriteByte(0)
	h.WriteString(r.NextHop)
	h.WriteByte(0)
	h.WriteString(r.OutIntf)
	a := uint32(r.Prefix.Addr)
	h.Write([]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a), r.Prefix.Len, byte(r.Action)})
	return h.Sum64()
}

// writeSpans writes the run's spans as a JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runtimeSample is a reading of the runtime's cumulative allocation and
// CPU counters.
type runtimeSample struct {
	objects, bytes  uint64
	gcCPU, totalCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		objects:  s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}
