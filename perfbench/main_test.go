package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsToySize runs every workload at toy size, traced and
// untraced: each must pass its correctness gates and print every
// declared metric with its unit as the last line.
func TestWorkloadsToySize(t *testing.T) {
	rcserved := filepath.Join(t.TempDir(), "rcserved")
	if out, err := exec.Command("go", "build", "-o", rcserved, "realconfig/cmd/rcserved").CombinedOutput(); err != nil {
		t.Fatalf("building rcserved: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, window: 500 * time.Millisecond, trace: traced,
				rcserved: rcserved, workDir: t.TempDir()}
			w.full(&cfg)
			cfg.k, cfg.perPrefix, cfg.setups = 4, min(cfg.perPrefix, 2), 2
			// 64 conditions at k=4: one sweep of serve-mixed takes 2 s.
			cfg.readRate, cfg.condRate = min(cfg.readRate, 40), 32
			var out bytes.Buffer
			res, err := run(w, cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, traced, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(last.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(last.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := last.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, s.name, m, s.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// declarations in step with what the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricSpec, names, units []string) {
		if len(names) != len(got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark reports %d", kind, len(names), len(got))
			return
		}
		for i, s := range got {
			if names[i] != s.name || units[i] != s.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, names[i], units[i], s.name, s.unit)
			}
		}
	}
	var n, u []string
	for _, m := range decl.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range decl.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
}
