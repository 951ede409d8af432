package main

import (
	"strings"
	"testing"
)

// TestCheckMetricsHoldsTheManifest: a result must carry exactly the
// manifest's metrics, each in its unit and finite.
func TestCheckMetricsHoldsTheManifest(t *testing.T) {
	want := map[string]string{"setup_s": "s", "p50_ms": "ms"}
	ok := map[string]metric{"setup_s": {1.5, "s"}, "p50_ms": {0.2, "ms"}}
	if err := checkMetrics(want, ok); err != nil {
		t.Fatalf("complete result refused: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"not measured":         {"setup_s": {1.5, "s"}},
		"not in BENCHMARK":     {"setup_s": {1.5, "s"}, "p50_ms": {0.2, "ms"}, "rps": {9, "1/s"}},
		"BENCHMARK.json says":  {"setup_s": {1.5, "s"}, "p50_ms": {0.2, "s"}},
		"metric p50_ms is NaN": {"setup_s": {1.5, "s"}, "p50_ms": {median(nil), "ms"}},
	} {
		err := checkMetrics(want, got)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("want an error containing %q, got %v", name, err)
		}
	}
}

// TestManifestListsEveryWorkloadsLayers: the repository's manifest
// names each per-layer metric after a workload, and every workload
// has a share of the map and its tracing overhead.
func TestManifestListsEveryWorkloadsLayers(t *testing.T) {
	layers, err := readManifest("..", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		if _, ok := layers[w+".bench.trace_overhead_pct"]; !ok {
			t.Errorf("no %s.bench.trace_overhead_pct in the manifest", w)
		}
	}
	for name := range layers {
		w, _, _ := strings.Cut(name, ".")
		if _, ok := workloads[w]; !ok {
			t.Errorf("per-layer metric %s names no workload", name)
		}
	}
	e2e, err := readManifest("..", false)
	if err != nil {
		t.Fatal(err)
	}
	if e2e["setup_s"] != "s" {
		t.Errorf("end-to-end metrics lack setup_s in s: %v", e2e)
	}
}
