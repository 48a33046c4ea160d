package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// and statistics.median return for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2.5, 9, 1, 7, 3.5, 4, 8, 6, 5, 10}, 3.25, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatalf("quartiles(%v): %v", c.xs, err)
		}
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v, want 0", m)
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, _, _, err := quartiles(xs); err != nil {
		t.Fatal(err)
	}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered to %v", xs)
	}
}

func TestCheckDefsCharset(t *testing.T) {
	good := []metricDef{{"job_s", "s"}, {"rulingset.span.seed-search_s", "s"}, {"9lives", "1/s"}, {"x", "%"}}
	if err := checkDefs(good); err != nil {
		t.Errorf("checkDefs(%v): %v", good, err)
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range [][]metricDef{
		{{"_job", "s"}},
		{{"job s", "s"}},
		{{"job/s", "s"}},
		{{string(long), "s"}},
		{{"", "s"}},
		{{"job_s", ""}},
		{{"job_s", "seconds-of-wall-time"}},
		{{"job_s", "s s"}},
		{{"job_s", "s"}, {"job_s", "ms"}},
	} {
		if err := checkDefs(bad); err == nil {
			t.Errorf("checkDefs(%v) accepted a bad list", bad)
		}
	}
	if err := checkDefs(endToEnd); err != nil {
		t.Errorf("end-to-end metrics: %v", err)
	}
	if err := checkDefs(perLayer); err != nil {
		t.Errorf("per-layer metrics: %v", err)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the printed metrics and the
// benchmark description in step: same names, same units, same order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &desc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the benchmark prints %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", desc.EndToEnd, endToEnd)
	same("per_layer", desc.PerLayer, perLayer)
	if len(desc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(desc.Workloads), len(workloads))
	}
	for i, w := range desc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].Name)
		}
	}
}
