// Command perfbench is RealConfig's end-to-end benchmark. It generates
// seeded inputs, drives the verifier through its public components (and,
// for serve-mixed, a real rcserved process over loopback), checks every
// output it times, and prints one JSON result line:
//
//	perfbench --workload apply-dense --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// makes a separate traced run that reports the per-layer metrics. See
// README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec declares one reported metric. The two tables below are
// the benchmark's metric vocabulary; BENCHMARK.json lists the same
// names (the self-test keeps them in step).
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"apply_p50_ms", "ms"},
	{"apply_p90_ms", "ms"},
	{"applies_per_s", "1/s"},
	{"condition_p50_ms", "ms"},
	{"condition_p90_ms", "ms"},
	{"conditions_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricSpec{
	{"netcfg.clone_diff_ms", "ms"},
	{"routing.step_ms", "ms"},
	{"routing.rules_changed", "count"},
	{"dd.entries", "count"},
	{"dd.node_runs", "count"},
	{"dd.iterations", "count"},
	{"alloc.objects_per_op", "count"},
	{"alloc.mb_per_op", "MB"},
	{"gc.cpu_ratio", "ratio"},
	{"model.apply_ms", "ms"},
	{"model.transfers", "count"},
	{"model.affected_ecs", "count"},
	{"model.ecs", "count"},
	{"policy.update_ms", "ms"},
	{"policy.relevance_tests", "count"},
	{"policy.evals", "count"},
	{"policy.eval_ms", "ms"},
	{"policy.affected_ecs", "count"},
	{"policy.affected_pairs", "count"},
	{"policy.checked_ratio", "ratio"},
	{"policy.flip_ratio", "ratio"},
	{"simulate.full_ms", "ms"},
	{"incr_over_scratch_ratio", "ratio"},
	{"stage.generate_ms", "ms"},
	{"stage.model_update_ms", "ms"},
	{"stage.policy_check_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.apply_ms", "ms"},
	{"server.http_ms", "ms"},
	{"server.read_ms", "ms"},
	{"journal.append_ms", "ms"},
	{"journal.fsync_ms", "ms"},
	{"snap.publishes", "count"},
	{"snap.capture_ms", "ms"},
	{"repl.catchup_s", "s"},
	{"load.late_p99_ms", "ms"},
	{"load.read_p90_ms", "ms"},
	{"load.read_p99_ms", "ms"},
	{"load.dropped", "count"},
	{"trace.residual_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// outcome is what one workload run produces: operation accounting, the
// correctness verdict with its first failure, and raw metric values.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	// samples states how many measurements stand behind each timing.
	samples map[string]int
	// steal is the share of the machine's CPU time the hypervisor took
	// during the reported measurement window; windows is how many
	// windows ran.
	steal   float64
	windows int
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), samples: make(map[string]int)}
}

// fail records a correctness-gate mismatch; the run reports
// correct=false and exits non-zero.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// runConfig sizes a workload. full() is the benchmark; the self-test
// uses toy sizes.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	k      int // fat-tree arity
	setups int // set-ups timed for setup_s
	// perPrefix is the reachability policies per host /24 (apply-dense,
	// serve-mixed).
	perPrefix int
	// readRate is serve-mixed's open-loop verdict reads per second and
	// condRate its open-loop change+revert pairs per second.
	readRate, condRate float64
	rcserved           string // path of the built rcserved binary
	workDir            string // scratch directory inside the checkout
}

type workload struct {
	name string
	run  func(cfg runConfig, o *outcome) error
	full func(cfg *runConfig)
}

var workloads = []workload{
	{"apply-dense", runApplyDense, func(c *runConfig) { c.k, c.perPrefix, c.setups = 6, 32, 15 }},
	{"failure-sweep", runFailureSweep, func(c *runConfig) { c.k, c.setups = 8, 5 }},
	{"serve-mixed", runServeMixed, func(c *runConfig) { c.k, c.perPrefix, c.setups, c.readRate, c.condRate = 6, 4, 15, 240, 8 }},
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: apply-dense, failure-sweep or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed (orders the change list, picks checkpoints)")
	seconds := fs.Float64("seconds", 20, "measurement window")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	rcserved := fs.String("rcserved", "", "rcserved binary (serve-mixed)")
	workDir := fs.String("workdir", ".bench_build", "scratch directory for generated inputs and traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload apply-dense|failure-sweep|serve-mixed, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *traceOn == 1,
		rcserved: *rcserved, workDir: *workDir,
	}
	w.full(&cfg)
	res, err := run(*w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload, prints a human summary and then the JSON
// result as the last line of out.
func run(w workload, cfg runConfig, out io.Writer) (*resultJSON, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	o := newOutcome()
	if err := w.run(cfg, o); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := &resultJSON{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(specs)),
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%v k=%d attempted=%d failed=%d",
		w.name, cfg.seed, cfg.window.Seconds(), cfg.trace, cfg.k, o.attempted, o.failed)
	if o.windows > 0 {
		fmt.Fprintf(out, " steal=%.1f%% windows=%d", 100*o.steal, o.windows)
	}
	fmt.Fprintln(out)
	for _, p := range o.problems {
		fmt.Fprintf(out, "perfbench: CHECK FAILED: %s\n", p)
	}
	for _, s := range specs {
		v, ok := o.values[s.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.name, s.name)
		}
		res.Metrics[s.name] = metricJSON{Value: v, Unit: s.unit}
		n := ""
		if c := o.samples[s.name]; c > 0 {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(out, "  %-26s %14.4f %-6s%s\n", s.name, v, s.unit, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// maxLate is how far behind schedule an open-loop generator may fall
// before it gives up on an arrival and counts it as failed.
const maxLate = time.Second

// classStats is one op class's open-loop accounting.
type classStats struct {
	attempted, failed, dropped int
	lateMs                     []float64 // send time minus due time, per arrival
}

// openLoop makes n arrivals at rate per second from start, on one
// goroutine (so, for a client, one connection), and calls send for each
// with the time the arrival is timed from. Each arrival is ops
// operations; send returns how many of them failed. Arrivals more than
// maxLate behind schedule are not sent and count as failed.
//
// An arrival is timed from when it was due if the previous arrival still
// held the connection then, so a stall counts against every request it
// delays. Otherwise it is timed from when it was sent: the generator's
// own timer wakes up to a millisecond late (0.6 ms at the median on a
// 2-vCPU virtual machine), and that slop is not the program's.
func openLoop(start time.Time, n int, rate float64, ops int, st *classStats, send func(i int, from time.Time) (failed int)) {
	var idle time.Time // when the previous arrival's requests finished
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		sent := time.Now()
		late := sent.Sub(due)
		st.lateMs = append(st.lateMs, ms(late))
		st.attempted += ops
		if late > maxLate {
			st.failed += ops
			st.dropped++
			continue
		}
		from := sent
		if idle.After(due) {
			from = due
		}
		st.failed += send(i, from)
		idle = time.Now()
	}
}

// timeSetups calls setup (which returns the time it measured)
// cfg.setups times and reports the median as setup_s.
func timeSetups(cfg runConfig, o *outcome, setup func(i int) (time.Duration, error)) error {
	times := make([]float64, cfg.setups)
	for i := range times {
		d, err := setup(i)
		if err != nil {
			return err
		}
		times[i] = d.Seconds()
	}
	o.values["setup_s"] = quantile(times, 0.5)
	o.samples["setup_s"] = len(times)
	return nil
}

// window is the end-to-end values of one measurement window.
type window struct {
	values  map[string]float64
	samples map[string]int
	steal   float64
}

func newWindow() *window {
	return &window{values: make(map[string]float64), samples: make(map[string]int)}
}

// A measurement window in which the hypervisor took more than maxSteal
// of the machine's CPU time is measured again, up to maxWindows in all,
// and the least stolen window is reported. On a shared virtual machine
// steal episodes slow every timing by a varying amount; the timings
// themselves are reported as measured.
const (
	maxSteal   = 0.02
	maxWindows = 2
)

// measureWindows runs measure (one measurement window; first is true for
// the first) until a window's steal share is at most maxSteal or
// maxWindows have run, and records the least stolen window in o.
func measureWindows(o *outcome, measure func(first bool) (*window, error)) error {
	var keep *window
	for o.windows = 1; ; o.windows++ {
		a := readCPU()
		w, err := measure(o.windows == 1)
		if err != nil {
			return err
		}
		w.steal = stealShare(a, readCPU())
		if keep == nil || w.steal < keep.steal {
			keep = w
		}
		if w.steal <= maxSteal || o.windows == maxWindows {
			break
		}
	}
	maps.Copy(o.values, keep.values)
	maps.Copy(o.samples, keep.samples)
	o.steal = keep.steal
	return nil
}

// cpuSample is a reading of the machine-wide CPU time of /proc/stat, in
// clock ticks: all of it, and the part the hypervisor took.
type cpuSample struct{ total, steal float64 }

func readCPU() cpuSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return cpuSample{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	var total float64
	for _, x := range v {
		total += x
	}
	return cpuSample{total: total, steal: v[7]}
}

// stealShare is the share of the machine's CPU time between readings a
// and b that the hypervisor took (0 where /proc/stat is unavailable).
// It is taken over all CPU time, busy or idle: a vCPU that wakes often
// is charged steal on wake-ups even when the host is quiet, so a share
// of the busy time alone would read high on any light open-loop load.
func stealShare(a, b cpuSample) float64 {
	total, steal := b.total-a.total, b.steal-a.steal
	if total <= 0 || steal <= 0 {
		return 0
	}
	return steal / total
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	if i > 0 {
		i--
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
