package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
	"realconfig/internal/topology"
)

// daemon is a running rcserved process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startDaemon spawns rcserved and returns once it has printed its
// listening address.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0", "-trace-ring", "0", "-backend", core.BackendAtom)...)
	// The daemon must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	_, rest, ok := strings.Cut(line, "listening on ")
	if err != nil || !ok {
		d.stop()
		return nil, fmt.Errorf("rcserved did not start (first line %q): %v", line, err)
	}
	d.base, _, _ = strings.Cut(rest, " ")
	return d, nil
}

// stop kills the process and waits for it to exit.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill() // an exited process is fine too
	_ = d.cmd.Wait()         // reaps; the kill makes the exit status moot
	d.cmd.Process = nil
}

// waitSeq polls /v1/readyz until the daemon is ready and, when seq > 0,
// has applied entry seq.
func (d *daemon) waitSeq(c *http.Client, seq uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			Ready bool   `json:"ready"`
			Seq   uint64 `json:"seq"`
		}
		code, body, err := get(c, d.base+"/v1/readyz")
		if err == nil && code == http.StatusOK && json.Unmarshal(body, &st) == nil && st.Ready && st.Seq >= seq {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready at seq %d within 60s", d.base, seq)
}

// newClient returns a client holding at most one connection, so each
// op class has its own and reads never queue behind applies.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads /v1/metrics into series -> value, keyed by the series as
// printed (name plus labels).
func scrape(c *http.Client, d *daemon) (map[string]float64, error) {
	code, body, err := get(c, d.base+"/v1/metrics")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d: %v", d.base, code, err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// runServeMixed drives a real rcserved leader with open-loop verdict
// reads and change/revert pairs on separate connections, then captures
// a snapshot, bootstraps a follower from it and checks both against an
// in-process build.
func runServeMixed(cfg runConfig, o *outcome) error {
	if cfg.rcserved == "" {
		return errors.New("serve-mixed needs --rcserved")
	}
	dir, err := filepath.Abs(filepath.Join(cfg.workDir, fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tnet, err := topology.FatTree(cfg.k, topology.BGP)
	if err != nil {
		return err
	}
	text, err := policyText(densePolicies(tnet, cfg.perPrefix))
	if err != nil {
		return err
	}
	netDir, polFile := filepath.Join(dir, "net"), filepath.Join(dir, "policies.txt")
	if err := core.SaveNetworkDir(tnet.Network, netDir); err != nil {
		return err
	}
	if err := os.WriteFile(polFile, []byte(text), 0o644); err != nil {
		return err
	}
	conds := linkConditions(tnet, true, cfg.seed)
	bodies := make([][2][]byte, len(conds))
	for i, c := range conds {
		for j, ch := range []netcfg.Change{c.change, c.revert} {
			raws, err := netcfg.EncodeChanges([]netcfg.Change{ch})
			if err != nil {
				return err
			}
			if bodies[i][j], err = json.Marshal(map[string]any{"changes": raws}); err != nil {
				return err
			}
		}
	}

	// Set-up: spawn until ready, several times, each on a fresh journal.
	ctl := newClient()
	defer ctl.CloseIdleConnections()
	var leader *daemon
	defer func() { leader.stop() }()
	err = timeSetups(cfg, o, func(i int) (time.Duration, error) {
		leader.stop()
		jdir := filepath.Join(dir, fmt.Sprintf("leader%d", i))
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return 0, err
		}
		t0 := time.Now()
		var err error
		if leader, err = startDaemon(cfg.rcserved, "-net", netDir, "-policies", polFile,
			"-journal", filepath.Join(jdir, "journal"), "-snapshot-every", "256"); err != nil {
			return 0, err
		}
		err = leader.waitSeq(ctl, 0)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}

	// Each window sends whole sweeps of the condition list, so every seed
	// sends the same set of conditions; reads arrive for as long.
	pairs := len(conds) * max(1, int(math.Ceil(cfg.window.Seconds()*cfg.condRate/float64(len(conds)))))
	span := float64(pairs) / cfg.condRate
	var applied []netcfg.Change // changes the leader accepted, in order
	var dropped int
	err = measureWindows(o, func(bool) (*window, error) {
		before, err := scrape(ctl, leader)
		if err != nil {
			return nil, err
		}
		var reads, writes classStats
		var readLat, applyLat, applySvc, condLat, condSvc []float64
		start := time.Now().Add(20 * time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			openLoop(start, int(span*cfg.readRate), cfg.readRate, 1, &reads, func(_ int, from time.Time) int {
				code, _, err := get(c, leader.base+"/v1/verdicts")
				if err != nil || code/100 != 2 {
					return 1
				}
				readLat = append(readLat, ms(time.Since(from)))
				return 0
			})
		}()
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			openLoop(start, pairs, cfg.condRate, 2, &writes, func(i int, arrival time.Time) int {
				k := i % len(conds)
				t0 := time.Now()
				from := arrival // the change is timed as openLoop says, the revert from when it was sent
				for j, ch := range []netcfg.Change{conds[k].change, conds[k].revert} {
					ts := time.Now()
					code, _, err := post(c, leader.base+"/v1/changes", bodies[k][j])
					if err != nil || code/100 != 2 {
						return 2 - j // a revert never sent fails too
					}
					applied = append(applied, ch)
					applyLat = append(applyLat, ms(time.Since(from)))
					applySvc = append(applySvc, ms(time.Since(ts)))
					from = time.Now()
				}
				condLat = append(condLat, ms(time.Since(arrival)))
				condSvc = append(condSvc, ms(time.Since(t0)))
				return 0
			})
		}()
		wg.Wait()
		after, err := scrape(ctl, leader)
		if err != nil {
			return nil, err
		}
		o.attempted += reads.attempted + writes.attempted
		o.failed += reads.failed + writes.failed
		dropped += reads.dropped + writes.dropped

		w := newWindow()
		v := w.values
		v["apply_p50_ms"] = quantile(applyLat, 0.5)
		v["apply_p90_ms"] = quantile(applyLat, 0.9)
		v["applies_per_s"] = 1000 / mean(applySvc)
		v["condition_p50_ms"] = quantile(condLat, 0.5)
		v["condition_p90_ms"] = quantile(condLat, 0.9)
		v["conditions_per_s"] = 1000 / mean(condSvc)
		v["read_p50_ms"] = quantile(readLat, 0.5)
		for _, m := range []string{"apply_p50_ms", "apply_p90_ms", "applies_per_s"} {
			w.samples[m] = len(applyLat)
		}
		for _, m := range []string{"condition_p50_ms", "condition_p90_ms", "conditions_per_s"} {
			w.samples[m] = len(condLat)
		}
		w.samples["read_p50_ms"] = len(readLat)

		// Per-layer numbers: deltas of the leader's own metrics over the
		// window, as means per observation.
		delta := func(series string) float64 { return after[series] - before[series] }
		meanMs := func(name, labels string) float64 {
			n := delta(name + "_count" + labels)
			if n == 0 {
				return 0
			}
			return 1000 * delta(name+"_sum"+labels) / n
		}
		per := func(series, count string) float64 {
			n := delta(count)
			if n == 0 {
				return 0
			}
			return delta(series) / n
		}
		stage := func(s string) float64 { return meanMs("realconfig_stage_seconds", `{stage="`+s+`"}`) }
		v["server.queue_wait_ms"] = meanMs("realconfig_server_queue_wait_seconds", "")
		v["server.apply_ms"] = meanMs("realconfig_server_apply_seconds", "")
		v["server.http_ms"] = mean(applySvc) - v["server.apply_ms"]
		v["server.read_ms"] = meanMs("realconfig_server_request_duration_seconds", `{code="200",method="GET",route="/v1/verdicts"}`)
		v["journal.append_ms"] = meanMs("realconfig_server_journal_append_seconds", "")
		v["journal.fsync_ms"] = meanMs("realconfig_server_journal_fsync_seconds", "")
		v["stage.generate_ms"] = stage("generate")
		v["stage.model_update_ms"] = stage("model_update")
		v["stage.policy_check_ms"] = stage("policy_check")
		v["snap.publishes"] = delta("realconfig_server_snapshot_publishes_total")
		v["load.late_p99_ms"] = quantile(append(reads.lateMs, writes.lateMs...), 0.99)
		// The read tail is reported here, ungated: see README.md.
		v["load.read_p90_ms"] = quantile(readLat, 0.9)
		v["load.read_p99_ms"] = quantile(readLat, 0.99)
		v["load.dropped"] = float64(reads.dropped + writes.dropped)
		// The daemon exports these layers' counters too.
		v["routing.step_ms"] = v["stage.generate_ms"]
		v["model.apply_ms"] = v["stage.model_update_ms"]
		v["policy.update_ms"] = v["stage.policy_check_ms"]
		v["dd.entries"] = per("realconfig_dd_entries_total", "realconfig_dd_epochs_total")
		v["dd.node_runs"] = per("realconfig_dd_node_runs_total", "realconfig_dd_epochs_total")
		v["routing.rules_changed"] = (delta("realconfig_rules_inserted_total") + delta("realconfig_rules_deleted_total")) /
			max(delta("realconfig_verifications_total"), 1)
		v["model.transfers"] = per("realconfig_atom_transfers_total", "realconfig_verifications_total")
		v["model.ecs"] = after["realconfig_atom_ecs"]
		v["policy.evals"] = per("realconfig_policy_checks_total", "realconfig_policy_updates_total")
		v["policy.affected_ecs"] = per("realconfig_policy_affected_ecs_total", "realconfig_policy_updates_total")
		v["policy.affected_pairs"] = per("realconfig_policy_affected_pairs_total", "realconfig_policy_updates_total")
		v["policy.checked_ratio"] = v["policy.evals"] / max(after["realconfig_policy_policies"], 1)
		// Unaccounted apply time: the server's apply latency less queue
		// wait, the verification stages and the journal append.
		accounted := v["server.queue_wait_ms"] + stage("total") + v["journal.append_ms"]
		v["trace.residual_ratio"] = (v["server.apply_ms"] - accounted) / v["server.apply_ms"]
		// Not exported by the daemon (or no tracing to compare): no value.
		for _, m := range []string{"netcfg.clone_diff_ms", "dd.iterations", "alloc.objects_per_op", "alloc.mb_per_op",
			"gc.cpu_ratio", "model.affected_ecs", "policy.relevance_tests", "policy.eval_ms", "policy.flip_ratio",
			"simulate.full_ms", "incr_over_scratch_ratio", "trace.overhead_ratio"} {
			v[m] = 0
		}
		return w, nil
	})
	if err != nil {
		return err
	}
	o.values["rss_peak_mb"] = procHWM(strconv.Itoa(leader.cmd.Process.Pid))
	if o.failed > 0 {
		o.fail("%d of %d ops failed (%d arrivals dropped)", o.failed, o.attempted, dropped)
	}
	v := o.values

	// Snapshot, then a follower bootstrapped from it.
	t0 := time.Now()
	code, body, err := post(ctl, leader.base+"/v1/snapshot", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("POST /v1/snapshot: status %d %s: %v", code, body, err)
	}
	v["snap.capture_ms"] = ms(time.Since(t0))
	var snap struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "follower"), 0o755); err != nil {
		return err
	}
	t0 = time.Now()
	follower, err := startDaemon(cfg.rcserved, "-net", netDir, "-policies", polFile,
		"-follow", leader.base, "-journal", filepath.Join(dir, "follower", "journal"))
	if err != nil {
		return err
	}
	defer follower.stop()
	if err := follower.waitSeq(ctl, snap.Seq); err != nil {
		return err
	}
	v["repl.catchup_s"] = time.Since(t0).Seconds()

	// Gates: the follower serves the leader's report byte for byte, and
	// the leader's verdicts equal an in-process build of the final
	// network.
	_, leaderReport, err := get(ctl, leader.base+"/v1/report")
	if err != nil {
		return err
	}
	_, followerReport, err := get(ctl, follower.base+"/v1/report")
	if err != nil {
		return err
	}
	if !bytes.Equal(leaderReport, followerReport) {
		o.fail("follower /v1/report differs from the leader's:\n  leader:   %s\n  follower: %s", leaderReport, followerReport)
	}
	final := tnet.Network.Clone()
	for _, ch := range applied {
		if err := ch.Apply(final); err != nil {
			return err
		}
	}
	want, _, err := core.Bootstrap(core.Options{DetectOscillation: true, Backend: core.BackendAtom}, final, text)
	if err != nil {
		return err
	}
	_, vb, err := get(ctl, leader.base+"/v1/verdicts")
	if err != nil {
		return err
	}
	var got struct {
		Verdicts []struct {
			Policy    string `json:"policy"`
			Satisfied bool   `json:"satisfied"`
		} `json:"verdicts"`
	}
	if err := json.Unmarshal(vb, &got); err != nil {
		return err
	}
	gotMap := make(map[string]bool, len(got.Verdicts))
	for _, e := range got.Verdicts {
		gotMap[e.Policy] = e.Satisfied
	}
	if d := diffVerdicts(want.Verdicts(), gotMap); d != "" {
		o.fail("leader verdicts differ from an in-process build of the final network: %s", d)
	}
	return nil
}
