package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestSingleRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "20", "-policy", "ID", "-drain", "linear", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "lifetime:") || !strings.Contains(s, "mean gateways:") {
		t.Fatalf("output:\n%s", s)
	}
}

func TestTrialsRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "15", "-policy", "ND", "-drain", "const-pergw", "-trials", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trials=3") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestTraceRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "15", "-drain", "linear", "-trace", "-seed", "9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "interval  gateways") {
		t.Fatalf("trace header missing:\n%s", out.String())
	}
}

func TestStaticAndVerify(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "12", "-drain", "linear", "-static", "-verify"}, &out)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicOutput(t *testing.T) {
	args := []string{"-n", "20", "-policy", "EL2", "-drain", "quadratic", "-seed", "77"}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different output")
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-policy", "bogus"},
		{"-drain", "bogus"},
		{"-n", "0"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v succeeded", args)
		}
	}
}

func TestExtendedRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "12", "-drain", "linear", "-extended", "-seed", "5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "first death:") || !strings.Contains(s, "half dead:") {
		t.Fatalf("output:\n%s", s)
	}
}

func TestTimeseriesOutput(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/ts.csv"
	var out bytes.Buffer
	err := run([]string{"-n", "12", "-drain", "linear", "-timeseries", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "interval,gateways,") {
		t.Fatalf("csv: %.60s", data)
	}
}

func TestFaultyRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "15", "-policy", "ND", "-drain", "linear",
		"-drop", "0.1", "-crash", "2", "-verify", "-seed", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"drop=0.10 crash=2", "faults: drops=", "crashed hosts: 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in output:\n%s", want, s)
		}
	}
}

func TestFaultyTrialsRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "12", "-drain", "linear", "-drop", "0.05", "-trials", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trials=3") || !strings.Contains(out.String(), "drop=0.05") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestFaultyTrialsWorkersIdentical checks that -workers spreads the
// hardened trials over the pool without changing a byte of the output.
func TestFaultyTrialsWorkersIdentical(t *testing.T) {
	args := []string{"-n", "12", "-policy", "EL2", "-drain", "linear",
		"-drop", "0.1", "-crash", "1", "-seed", "5", "-trials", "4"}
	var one, two bytes.Buffer
	if err := run(append(args, "-workers", "1"), &one); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-workers", "2"), &two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatalf("-workers 1 and -workers 2 differ:\n%s\n---\n%s", one.String(), two.String())
	}
}

func TestFaultyTimeseries(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/faults.csv"
	var out bytes.Buffer
	err := run([]string{"-n", "12", "-drain", "linear", "-drop", "0.1", "-timeseries", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "interval,rounds,messages,retransmissions,") {
		t.Fatalf("csv: %.80s", data)
	}
}

func TestFaultyDeterministicOutput(t *testing.T) {
	args := []string{"-n", "14", "-policy", "EL2", "-drain", "linear",
		"-drop", "0.15", "-crash", "1", "-faultseed", "8", "-seed", "2"}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seeds produced different faulty output")
	}
}

func TestBadFaultFlags(t *testing.T) {
	cases := [][]string{
		{"-drop", "-0.1"},
		{"-drop", "1.5"},
		{"-drop", "NaN"},
		{"-drop", "nan"},
		{"-drop", "+Inf"},
		{"-drop", "-Inf"},
		{"-crash", "-1"},
		{"-n", "10", "-crash", "10"},
		{"-n", "10", "-crash", "11"},
		{"-drop", "0.1", "-extended"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v succeeded", args)
		}
	}
}

func TestBadFaultFlagErrorsAreClear(t *testing.T) {
	// The error message must name the flag and the constraint, not just
	// fail downstream with a cryptic internal error.
	var out bytes.Buffer
	err := run([]string{"-drop", "NaN"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-drop") || !strings.Contains(err.Error(), "[0, 1]") {
		t.Fatalf("NaN drop error = %v", err)
	}
	err = run([]string{"-n", "10", "-crash", "12"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-crash") || !strings.Contains(err.Error(), "10 hosts") {
		t.Fatalf("crash range error = %v", err)
	}
}
