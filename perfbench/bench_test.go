package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runTiny runs one pass (plus one traced pass when traced) of a workload
// at the reduced test sizes, through the same code the benchmark runs.
func runTiny(t *testing.T, name string, traced bool, pins map[string]string) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := measure(runConfig{workload: w, seed: 1, trace: traced, tiny: true, pins: pins})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func wantMetrics(t *testing.T, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

func TestTinyPassEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runTiny(t, w.name, false, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.failures)
			}
			wantMetrics(t, res.Metrics, endToEndMetrics)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			traced := runTiny(t, w.name, true, nil)
			if !traced.Correct {
				t.Fatalf("traced run does not reproduce the untraced digests: %v", traced.failures)
			}
			wantMetrics(t, traced.Metrics, perLayerMetrics)
			active := []string{"sim.run_s", "sim.builds", "sweep.points", "sim.flits_forwarded"}
			if w.name == "designspace" {
				active = []string{"core.span_s", "core.mapped_candidates", "mapping.restarts", "mapping.pair_visits"}
			}
			for _, name := range active {
				if !(traced.Metrics[name].Value > 0) {
					t.Errorf("%s = %v on %s, want > 0", name, traced.Metrics[name].Value, w.name)
				}
			}
		})
	}
}

func TestTamperedDigestFailsOp(t *testing.T) {
	w, _ := findWorkload("synthetic-knee")
	b, err := w.prepare(1, true, &setupTimes{})
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]string{}
	for _, op := range b.pass(nil, 0) {
		pins[op.name] = op.digest
	}
	if res := runTiny(t, w.name, false, pins); !res.Correct || res.Failed != 0 {
		t.Fatalf("untampered pins: correct=%v failed=%d %v", res.Correct, res.Failed, res.failures)
	}
	const victim = "waferscale/uniform/load=0.95"
	if pins[victim] == "" {
		t.Fatalf("no op %s", victim)
	}
	pins[victim] = "0000000000000000"
	res := runTiny(t, w.name, false, pins)
	if res.Correct || res.Failed != res.passes {
		t.Fatalf("tampered digest: correct=%v failed=%d over %d passes, want every execution of %s failed",
			res.Correct, res.Failed, res.passes, victim)
	}
}

func TestPinnedDigestsCoverEveryWorkload(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if len(pins) == 0 {
		t.Fatal("no pinned seeds")
	}
	for seed, byWorkload := range pins {
		for _, w := range workloads {
			if len(byWorkload[w.name]) == 0 {
				t.Errorf("seed %s pins no digests for %s", seed, w.name)
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogue, the
// workload list and the repository's BENCHMARK.json in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not beside this package: %v", err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		json []entry
		defs []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(set.json) != len(set.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, catalogue %d", len(set.json), len(set.defs))
			continue
		}
		for i, d := range set.defs {
			if e := set.json[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, catalogue %s %s %s", i, e, d.name, d.unit, d.better)
			}
		}
	}
}

func TestCommandLine(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--list-metrics"}, &out, &errb); code != 0 {
		t.Fatalf("--list-metrics exit %d: %s", code, errb.String())
	}
	for _, set := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range set {
			if !strings.Contains(out.String(), d.name) {
				t.Errorf("catalogue lacks %s", d.name)
			}
		}
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "designspace", "--trace", "2"},
	} {
		out.Reset()
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
