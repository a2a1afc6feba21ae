package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/troxy-bft/troxy/internal/testutil"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func toJSONMetrics(specs []metricSpec) []jsonMetric {
	out := make([]jsonMetric, len(specs))
	for i, s := range specs {
		out[i] = jsonMetric{Name: s.Name, Unit: s.Unit, Better: s.Better, Bound: s.Bound}
	}
	return out
}

// Schema stability: the names, units and bounds the code reports are the ones
// BENCHMARK.json declares.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the code's default is %v", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, implemented %s", i, doc.Workloads[i], w.Name)
		}
	}
	if want := toJSONMetrics(endToEnd); !reflect.DeepEqual(doc.EndToEnd, want) {
		t.Errorf("end_to_end:\ndeclared    %+v\nimplemented %+v", doc.EndToEnd, want)
	}
	if want := toJSONMetrics(perLayer); !reflect.DeepEqual(doc.PerLayer, want) {
		t.Errorf("per_layer:\ndeclared    %+v\nimplemented %+v", doc.PerLayer, want)
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// Every workload, with windows of about 200 ms: the reported metric set is
// exactly the declared one, nothing fails, and no goroutine outlives the run.
func TestWorkloadsQuick(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, spec := range workloads {
		res, err := runEndToEnd(spec, 1, 0.6)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", spec.Name, res.failed, res.attempted)
		}
		if _, missing := fill(endToEnd, res.values); missing != "" || len(res.values) != len(endToEnd) {
			t.Errorf("%s: metric set %v does not match the declared one (missing %q)", spec.Name, res.values, missing)
		}
		for name, v := range res.values {
			if !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", spec.Name, name, v)
			}
		}
	}
}

func TestRunOneRejectsUnknownWorkload(t *testing.T) {
	if err := runOne("no_such_workload", 1, 1, false, t.TempDir()); err == nil {
		t.Error("unknown workload accepted")
	}
}
