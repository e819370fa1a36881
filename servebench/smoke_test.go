package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the result line carries every named metric with its unit and
// that the correctness gate passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three workloads")
	}
	for _, w := range []string{"stream", "online", "mixed"} {
		for _, trace := range []bool{false, true} {
			opts := options{workload: w, seed: 3, seconds: 1, trace: trace, scratch: t.TempDir()}
			res, err := workloads[w](opts)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if len(res.wrong) > 0 {
				t.Fatalf("%s trace=%v: correctness gate failed: %v", w, trace, res.wrong)
			}
			line, err := resultLine(opts, res)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var out resultJSON
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(out.Metrics) != len(specs) || out.Attempted < 1 || !out.Correct {
				t.Fatalf("%s trace=%v: bad result line %s", w, trace, line)
			}
			for _, m := range specs {
				if got, ok := out.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w, trace, m.name, got.Unit, m.unit)
				}
			}
		}
	}
}

// TestSelfTestRejects is the gate's negative test on its own: a
// perturbed row and a stale row must both be rejected, bitwise and with
// an int8 tolerance.
func TestSelfTestRejects(t *testing.T) {
	ds, err := genDataset(5, 4000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newModel(ds, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	edges := ds.Graph.Edges()
	last := edges[len(edges)-1]
	for _, c := range []checker{{}, {tol: 1e-3}} {
		if err := selfTest(c, m, ds.Graph.NumNodes(), 0, edges, last.Src, last.Time+1); err != nil {
			t.Errorf("tol %g: %v", c.tol, err)
		}
	}
	// A checker that accepts everything must fail the self-test.
	if err := selfTest(checker{tol: 1e9}, m, ds.Graph.NumNodes(), 0, edges, last.Src, last.Time+1); err == nil {
		t.Error("self-test passed with a checker that accepts any row")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with
// the metrics the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, want %s %s %s", i, g, m.name, m.unit, m.better)
			}
		}
	}
}
