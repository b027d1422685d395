package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: pacds
cpu: some CPU
BenchmarkApplyRulesFixpoint/dirty-8     16920   70458 ns/op   12345 B/op   67 allocs/op   2.000 passes
BenchmarkApplyRulesFixpoint/dirty-8     17000   70000 ns/op   12345 B/op   67 allocs/op   2.000 passes
BenchmarkApplyRulesFixpoint/rescan-8     5000  200000 ns/op   45678 B/op  210 allocs/op   3.000 passes
BenchmarkMarking-8                    1000000    1259 ns/op
PASS
ok      pacds   12.345s
`

func TestParseAndSummarize(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	err := run([]string{"-o", out}, strings.NewReader(sampleOutput), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]map[string]float64
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	dirty := got["ApplyRulesFixpoint/dirty"]
	if dirty == nil {
		t.Fatalf("missing dirty entry; got keys %v", keys(got))
	}
	if want := (70458.0 + 70000.0) / 2; math.Abs(dirty["ns/op"]-want) > 1e-9 {
		t.Fatalf("dirty ns/op = %v, want %v", dirty["ns/op"], want)
	}
	if dirty["allocs/op"] != 67 || dirty["samples"] != 2 {
		t.Fatalf("dirty = %+v", dirty)
	}
	if got["ApplyRulesFixpoint/rescan"]["passes"] != 3 {
		t.Fatalf("rescan = %+v", got["ApplyRulesFixpoint/rescan"])
	}
	if m := got["Marking"]; m["ns/op"] != 1259 {
		t.Fatalf("Marking = %+v", m)
	}
	if _, ok := got["PASS"]; ok {
		t.Fatal("non-benchmark line leaked into the summary")
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(nil, strings.NewReader("PASS\nok pacds 0.1s\n"), nil); err == nil {
		t.Fatal("want error on input with no benchmark lines")
	}
}

func TestBaselineDiff(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	// Baseline: dirty at 70000 ns/op, rescan at 100000 ns/op, one retired.
	writeJSON(t, base, map[string]map[string]float64{
		"ApplyRulesFixpoint/dirty":  {"ns/op": 70229},
		"ApplyRulesFixpoint/rescan": {"ns/op": 100000},
		"Retired":                   {"ns/op": 42},
	})

	// Current run: dirty flat, rescan 2x slower -> must fail the gate.
	var out strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(sampleOutput), &out)
	if err == nil {
		t.Fatalf("want regression error, got none; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "ApplyRulesFixpoint/rescan") {
		t.Fatalf("regression error %q does not name the regressed benchmark", err)
	}
	if strings.Contains(err.Error(), "ApplyRulesFixpoint/dirty") {
		t.Fatalf("flat benchmark flagged as regression: %q", err)
	}
	for _, want := range []string{"Marking", "new (no baseline entry)", "Retired", "retired (baseline only)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("diff output missing %q:\n%s", want, out.String())
		}
	}

	// A generous threshold admits the same run.
	if err := run([]string{"-baseline", base, "-threshold", "1.5"}, strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatalf("threshold 150%%: unexpected failure: %v", err)
	}
}

// TestBaselineWithNoSharedRowFails: a diff whose benchmarks all miss the
// baseline compares nothing, so it must fail rather than pass vacuously.
func TestBaselineWithNoSharedRowFails(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeJSON(t, base, map[string]map[string]float64{
		"ServerCompute/cold": {"ns/op": 1e9},
	})
	var out strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(sampleOutput), &out)
	if err == nil || !strings.Contains(err.Error(), "nothing was compared") {
		t.Fatalf("want a nothing-compared error, got %v; output:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "new (no baseline entry)") {
		t.Fatalf("diff output does not report the unmatched rows:\n%s", out.String())
	}
}

func TestBaselineAllocGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	// Baseline allocs: dirty at 67 (flat vs sampleOutput), rescan at 100
	// (sampleOutput's 210 is a >100% regression). ns/op baselines are
	// generous so only the alloc gate can fail.
	writeJSON(t, base, map[string]map[string]float64{
		"ApplyRulesFixpoint/dirty":  {"ns/op": 1e9, "allocs/op": 67},
		"ApplyRulesFixpoint/rescan": {"ns/op": 1e9, "allocs/op": 100},
	})

	// Default: alloc gate disabled, the doubled allocs pass.
	var out strings.Builder
	if err := run([]string{"-baseline", base}, strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatalf("alloc gate disabled: unexpected failure: %v", err)
	}

	// Enabled: rescan's 100 -> 210 allocs/op must fail, dirty must not.
	err := run([]string{"-baseline", base, "-alloc-threshold", "0.1"}, strings.NewReader(sampleOutput), &out)
	if err == nil {
		t.Fatalf("want allocs/op regression error, got none; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "rescan") || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("regression error %q does not name the alloc regression", err)
	}
	if strings.Contains(err.Error(), "dirty") {
		t.Fatalf("flat-alloc benchmark flagged as regression: %q", err)
	}

	// A zero-alloc baseline admits only zero.
	writeJSON(t, base, map[string]map[string]float64{
		"Marking": {"ns/op": 1e9, "allocs/op": 0},
	})
	zeroIn := "BenchmarkMarking-8 100 1259 ns/op 16 B/op 1 allocs/op\n"
	err = run([]string{"-baseline", base, "-alloc-threshold", "0.5"}, strings.NewReader(zeroIn), &out)
	if err == nil || !strings.Contains(err.Error(), "allocation-free") {
		t.Fatalf("want zero-alloc baseline violation, got %v", err)
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func keys(m map[string]map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
