package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload of BENCHMARK.json for a handful of
// operations over small data, untraced and traced, and checks that no
// operation failed and that the last line reports exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	for _, w := range spec.Workloads {
		for trace, want := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace,
					"--scale", "0.05", "--max-ops", "30", "--out", t.TempDir()}
				if err := run(context.Background(), args, &stdout, &stderr); err != nil {
					t.Fatalf("run: %v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not a report: %v", err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", rep.Correct, rep.Failed, rep.Attempted, stderr.String())
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}
