package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"realconfig/internal/core"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/simulate"
	"realconfig/internal/topology"
)

// verifierOptions is the default deployment the in-process workloads
// run: bdd backend, sequential checker, tracing off (as rcserved
// -trace-ring 0 configures it).
var verifierOptions = core.Options{DetectOscillation: true}

// inprocSpec describes an in-process workload's inputs.
type inprocSpec struct {
	name      string
	mode      topology.Mode
	localPref bool // add every link's local-pref change to the conditions
	// forkCheck also checks checkpoint verdicts against a from-scratch
	// verifier (ForkSameAt); every workload checks its FIB against
	// simulate.Run.
	forkCheck bool
	policies  func(net *topology.Net, cfg runConfig) []policy.Policy
}

var applyDense = inprocSpec{
	name:      "apply-dense",
	mode:      topology.BGP,
	localPref: true,
	forkCheck: true,
	policies:  func(net *topology.Net, cfg runConfig) []policy.Policy { return densePolicies(net, cfg.perPrefix) },
}

var failureSweep = inprocSpec{
	name:     "failure-sweep",
	mode:     topology.OSPF,
	policies: func(net *topology.Net, _ runConfig) []policy.Policy { return sweepPolicies(net) },
}

func runApplyDense(cfg runConfig, o *outcome) error   { return runInproc(applyDense, cfg, o) }
func runFailureSweep(cfg runConfig, o *outcome) error { return runInproc(failureSweep, cfg, o) }

func runInproc(spec inprocSpec, cfg runConfig, o *outcome) error {
	if cfg.trace {
		return runTraced(spec, cfg, o)
	}
	net, v, err := setupTimed(spec, cfg, o)
	if err != nil {
		return err
	}
	conds := linkConditions(net, spec.localPref, cfg.seed)
	return timedConditions(spec, v, conds, cfg, o)
}

// setupInproc builds the workload's network and a loaded verifier with
// its policies registered: the set-up a user of the library pays.
func setupInproc(spec inprocSpec, cfg runConfig) (*topology.Net, *core.Verifier, error) {
	net, err := topology.FatTree(cfg.k, spec.mode)
	if err != nil {
		return nil, nil, err
	}
	v := core.New(verifierOptions)
	if _, err := v.Load(net.Network); err != nil {
		return nil, nil, err
	}
	for _, p := range spec.policies(net, cfg) {
		v.AddPolicy(p)
	}
	return net, v, nil
}

// setupTimed times the set-up (see timeSetups) and keeps the last
// verifier.
func setupTimed(spec inprocSpec, cfg runConfig, o *outcome) (*topology.Net, *core.Verifier, error) {
	var net *topology.Net
	var v *core.Verifier
	err := timeSetups(cfg, o, func(int) (time.Duration, error) {
		net, v = nil, nil
		runtime.GC() // start each set-up from the same heap
		t0 := time.Now()
		var err error
		net, v, err = setupInproc(spec, cfg)
		return time.Since(t0), err
	})
	return net, v, err
}

// checkpoint is verifier state recorded mid-condition, checked against
// from-scratch builds once the window has closed.
type checkpoint struct {
	net      *netcfg.Network
	verdicts map[string]bool
	fib      map[dataplane.Rule]dd.Diff
}

// readsPerApply is how many times the in-process caller reads every
// verdict after each apply, as that many clients polling the verdicts
// between updates would. The first read after an apply meets caches the
// apply has displaced and takes about four times as long as the rest,
// so the reads have no steady tail: their p99 is set by how slow those
// first reads are on the host, and it moved by up to 26% (quartile
// distance over median) across ten runs of the same code. Only the
// median is reported.
const readsPerApply = 8

// timedConditions drives the in-process workloads. One closed-loop
// caller enters and leaves conditions in seed order, reading every
// policy's verdict after each apply (change, reads, revert, reads), and
// cycles through the list in whole sweeps until the window has passed.
func timedConditions(spec inprocSpec, v *core.Verifier, conds []condition, cfg runConfig, o *outcome) error {
	base := v.Verdicts()
	baseRules, baseECs := v.NumFIBRules(), v.NumECs()
	rng := rand.New(rand.NewSource(cfg.seed))
	checkAt := map[int]bool{}
	for _, i := range rng.Perm(len(conds))[:min(4, len(conds))] {
		checkAt[i] = true
	}
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	chk := v.Checker()
	readVerdicts := func() (satisfied int) {
		for _, name := range names {
			if ok, _ := chk.Verdict(name); ok {
				satisfied++
			}
		}
		return satisfied
	}

	var cps []checkpoint
	err := measureWindows(o, func(first bool) (*window, error) {
		var applyMs, condMs, readMs []float64
		var applyBusy, condBusy time.Duration
		runtime.GC()
		start := time.Now()
		// Whole sweeps only, so every run times the same set of conditions.
		for i := 0; i%len(conds) != 0 || i == 0 || time.Since(start) < cfg.window; i++ {
			c := conds[i%len(conds)]
			var busy time.Duration
			for step, ch := range []netcfg.Change{c.change, c.revert} {
				t0 := time.Now()
				_, err := v.Apply(ch)
				t1 := time.Now()
				o.attempted++
				if err != nil {
					o.failed++
					return nil, fmt.Errorf("apply %v: %w", ch, err)
				}
				applyMs = append(applyMs, ms(t1.Sub(t0)))
				applyBusy += t1.Sub(t0)
				for r, t := 0, t1; r < readsPerApply; r++ {
					readVerdicts()
					t2 := time.Now()
					readMs = append(readMs, ms(t2.Sub(t)))
					t = t2
				}
				busy += time.Since(t0)
				if step == 0 && first && i < len(conds) && checkAt[i] {
					cps = append(cps, checkpoint{net: v.Network(), verdicts: v.Verdicts(), fib: v.FIB()})
				}
			}
			condMs = append(condMs, ms(busy))
			condBusy += busy
		}
		w := newWindow()
		w.values["apply_p50_ms"] = quantile(applyMs, 0.5)
		w.values["apply_p90_ms"] = quantile(applyMs, 0.9)
		w.values["applies_per_s"] = float64(len(applyMs)) / applyBusy.Seconds()
		w.values["condition_p50_ms"] = quantile(condMs, 0.5)
		w.values["condition_p90_ms"] = quantile(condMs, 0.9)
		w.values["conditions_per_s"] = float64(len(condMs)) / condBusy.Seconds()
		w.values["read_p50_ms"] = quantile(readMs, 0.5)
		for _, m := range []string{"apply_p50_ms", "apply_p90_ms", "applies_per_s"} {
			w.samples[m] = len(applyMs)
		}
		for _, m := range []string{"condition_p50_ms", "condition_p90_ms", "conditions_per_s"} {
			w.samples[m] = len(condMs)
		}
		w.samples["read_p50_ms"] = len(readMs)
		return w, nil
	})
	if err != nil {
		return err
	}
	o.values["rss_peak_mb"] = vmHWM()

	// Gates: checkpoints against from-scratch builds, and the end state
	// (every condition reverted) against the base.
	for _, cp := range cps {
		if spec.forkCheck {
			fork, err := v.ForkSameAt(cp.net, v.Options())
			if err != nil {
				return err
			}
			if d := diffVerdicts(cp.verdicts, fork.Verdicts()); d != "" {
				o.fail("checkpoint verdicts differ from a from-scratch build: %s", d)
			}
		}
		if d, err := diffFIB(cp.fib, cp.net); err != nil {
			return err
		} else if d != "" {
			o.fail("checkpoint FIB differs from simulate.Run: %s", d)
		}
	}
	if d := diffVerdicts(base, v.Verdicts()); d != "" {
		o.fail("end-state verdicts differ from the base: %s", d)
	}
	if got := v.NumFIBRules(); got != baseRules {
		o.fail("end-state FIB has %d rules, base had %d", got, baseRules)
	}
	if got := v.NumECs(); got != baseECs {
		o.fail("end-state model has %d ECs, base had %d", got, baseECs)
	}
	return nil
}

// diffVerdicts describes the first difference between two verdict maps
// ("" when equal).
func diffVerdicts(want, got map[string]bool) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d policies vs %d", len(want), len(got))
	}
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if g, ok := got[n]; !ok || g != want[n] {
			return fmt.Sprintf("%s: %v vs %v (present=%v)", n, want[n], g, ok)
		}
	}
	return ""
}

// diffFIB compares an incremental FIB with simulate.Run's from-scratch
// data plane for the same network ("" when equal).
func diffFIB(fib map[dataplane.Rule]dd.Diff, net *netcfg.Network) (string, error) {
	want, err := simulate.Run(net)
	if err != nil {
		return "", err
	}
	n := 0
	for r, d := range fib {
		if d <= 0 {
			continue
		}
		n++
		if d != 1 || !want.Rules[r] {
			return fmt.Sprintf("extra rule %v (multiplicity %d)", r, d), nil
		}
	}
	if n != len(want.Rules) {
		return fmt.Sprintf("%d rules vs %d from scratch", n, len(want.Rules)), nil
	}
	return "", nil
}

// vmHWM returns the peak resident set of this process in MB.
func vmHWM() float64 { return procHWM("self") }

// procHWM reads VmHWM (peak resident set) of /proc/<pid>/status in MB,
// or 0 when unavailable.
func procHWM(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
