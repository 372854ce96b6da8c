package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

func mkSpan(id, parent int, layer string, start, end int) span {
	return span{ID: id, Parent: parent, Update: 0, Layer: layer,
		Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		mkSpan(0, -1, "bench", 0, 100),
		mkSpan(1, 0, "core", 10, 40),  // overlaps 2
		mkSpan(2, 0, "trace", 30, 60), // union of 1 and 2 is [10, 60)
		mkSpan(3, 0, "mem", 70, 80),
		mkSpan(4, 0, "mem", 95, 120), // runs past its parent: clipped to [95, 100)
		mkSpan(5, 2, "trace", 35, 45),
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 50 - 10 - 5, 30, 30 - 10, 10, 25, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
	by := layerSelf(spans)
	if by["bench"] != 35 || by["core"] != 30 || by["trace"] != 30 || by["mem"] != 35 {
		t.Errorf("layerSelf = %v", by)
	}
}

func TestSelfTimeNestedChildrenOnlyCountDirectOnes(t *testing.T) {
	// A grandchild is inside its parent; it must not be subtracted from
	// the grandparent a second time.
	spans := []span{
		mkSpan(0, -1, "bench", 0, 10),
		mkSpan(1, 0, "quiesce", 0, 8),
		mkSpan(2, 1, "trace", 1, 7),
	}
	self := selfTimes(spans)
	if self[0] != 2 || self[1] != 2 || self[2] != 6 {
		t.Errorf("self = %v, want [2 2 6]", self)
	}
}

func TestLayerSelfSkipsSpansOutsideUpdates(t *testing.T) {
	spans := []span{mkSpan(0, -1, "core", 0, 10)}
	spans = append(spans, span{ID: 1, Parent: -1, Update: -1, Layer: "workload", End: 50})
	if by := layerSelf(spans); by["workload"] != 0 || by["core"] != 10 {
		t.Errorf("layerSelf = %v", by)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("core", "x", -1, 0)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the workload
// and metric names the benchmark knows in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	same := func(what string, got, want []string) {
		t.Helper()
		g, w := append([]string(nil), got...), append([]string(nil), want...)
		sort.Strings(g)
		sort.Strings(w)
		if len(g) != len(w) {
			t.Errorf("%s: BENCHMARK.json has %d names, the benchmark %d", what, len(g), len(w))
			return
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: BENCHMARK.json %q vs benchmark %q", what, g[i], w[i])
			}
		}
	}
	for _, w := range names(spec.Workloads) {
		if workloads[w] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w)
		}
	}
	same("end_to_end", names(spec.EndToEnd), endToEndNames)
	same("per_layer", names(spec.PerLayer), perLayerNames())
}
