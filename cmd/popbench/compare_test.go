package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same runs", base, base, false, 0.05, "unchanged"},
		{"latency down 10%", base, scale(0.9, base), false, 0.05, "better"},
		{"latency up 10%", base, scale(1.1, base), false, 0.05, "worse"},
		{"latency up 3%, inside the bound", base, scale(1.03, base), false, 0.05, "unchanged"},
		{"throughput up 10%", base, scale(1.1, base), true, 0.05, "better"},
		{"throughput down 10%", base, scale(0.9, base), true, 0.05, "worse"},
		{"spread wider than the bound", noisy, noisy, false, 0.05, "unresolved"},
		{"no bound, no clear winner", base, scale(1.01, base), false, 0, "unresolved"},
		{"no bound, every run the same", []float64{0, 0, 0}, []float64{0, 0, 0}, false, 0, "unchanged"},
		{"no bound, clear loser", base, scale(1.2, base), false, 0, "worse"},
	} {
		c := &comparison{a: tc.a, b: tc.b, higher: tc.higher, bound: tc.bound}
		c.judge()
		if c.verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (wins %d, losses %d)", tc.name, c.verdict, tc.want, c.wins, c.losses)
		}
	}
}

// writeReports writes one report per value of get_p50_us.
func writeReports(t *testing.T, dir string, gomaxprocs int, values ...float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		r := report{
			Provenance: provenance{GOMAXPROCS: gomaxprocs, Clients: clients, Seconds: 10, Seed: uint64(i)},
			Workloads: []*result{{
				Workload: "mem-read",
				Metrics:  map[string]metricValue{"get_p50_us": {v, "us"}, "setup_s": {1, "s"}},
			}},
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "run-"+string(rune('a'+i))+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareSyntheticReports(t *testing.T) {
	dir := t.TempDir()
	sp := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(sp, []byte(`{"end_to_end":[{"name":"get_p50_us","unit":"us","better":"lower","bound":0.05},{"name":"setup_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	writeReports(t, filepath.Join(dir, "a"), 2, 10, 10.1, 9.9, 10, 10.05)
	writeReports(t, filepath.Join(dir, "b"), 2, 12, 12.1, 11.9, 12, 12.05)
	writeReports(t, filepath.Join(dir, "c"), 8, 10, 10.1, 9.9, 10, 10.05)

	var out bytes.Buffer
	worse, err := runCompare(&out, filepath.Join(dir, "a"), filepath.Join(dir, "b"), sp)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "get_p50_us (us)") || strings.Contains(out.String(), "WARNING") {
		t.Errorf("a 20%% slower get was not reported worse, or settings were flagged:\n%s", out.String())
	}
	out.Reset()
	worse, err = runCompare(&out, filepath.Join(dir, "a"), filepath.Join(dir, "a", "run-*.json"), sp)
	if err != nil {
		t.Fatal(err)
	}
	if worse || !strings.Contains(out.String(), "2 unchanged") {
		t.Errorf("a set compared with itself is not unchanged:\n%s", out.String())
	}
	out.Reset()
	if _, err := runCompare(&out, filepath.Join(dir, "a"), filepath.Join(dir, "c"), sp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARNING settings differ, gomaxprocs: 2 | 8") {
		t.Errorf("differing GOMAXPROCS was not flagged:\n%s", out.String())
	}
}

// BENCHMARK.json and the metric definitions must name the same
// metrics with the same bounds, so the result line carries exactly
// what the benchmark bounds. setup_s has the largest bound, at most
// 0.25; every other bound is at most 0.10.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, popbench defines %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better || got[i].Bound != want[i].bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, popbench %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", sp.EndToEnd, resultMetrics(false))
	check("per_layer", sp.PerLayer, resultMetrics(true))
	var setup float64
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	if setup <= 0 || setup > 0.25 {
		t.Errorf("setup_s: bound %g must be in (0, 0.25]", setup)
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > setup {
			t.Errorf("%s: bound %g must be in (0, %g], setup_s's", m.Name, m.Bound, setup)
		}
	}
	for _, d := range endToEnd {
		if d.name != "setup_s" && (d.bound < 0 || d.bound > 0.10) {
			t.Errorf("%s: bound %g must be in [0, 0.10]", d.name, d.bound)
		}
	}
}
