package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkFileMatchesProgram fails when BENCHMARK.json and the
// program's metric tables drift apart.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(section string, got []fileMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", section, len(got), len(want))
		}
		for i, d := range want {
			wantMetric := fileMetric{Name: d.name, Unit: d.unit, Better: better(d)}
			if bounded {
				wantMetric.Bound = d.bound
			}
			if got[i] != wantMetric {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", section, i, got[i], wantMetric)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}

// TestSmoke runs both passes of every workload at toy scale and checks
// that each prints exactly the declared metrics, all finite, with
// nothing failed.
func TestSmoke(t *testing.T) {
	cfg := config{
		seed: 1, seconds: 0.01, traceDir: t.TempDir(),
		setups: 1, users: 300, variants: 4, randFactor: 1, oracleBindings: 2,
		singleSegmentMillis: 300, quorumSegmentMillis: 300, windowTxns: 50,
		replayStatements: 200, admitCalls: 1000,
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg.workload, cfg.trace = name, trace
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := metricsOf(trace)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", name, trace, d.name)
					continue
				}
				if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v %s", name, trace, d.name, m.Value, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want positive", name, d.name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(cfg.traceDir + "/trace-" + name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
}
