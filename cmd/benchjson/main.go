// Command benchjson converts `go test -bench` text output into a JSON
// summary keyed by benchmark name: for each benchmark, the mean of every
// reported metric (ns/op, B/op, allocs/op, and any b.ReportMetric unit)
// across the -count repetitions, plus the sample count.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 5 . | benchjson -o BENCH_PR3.json
//	benchjson -o BENCH_PR3.json bench.out
//	go test -run '^$' -bench . -benchmem . | benchjson -baseline BENCH_PR7.json
//
// Lines that are not benchmark results (the goos/goarch header, PASS, ok)
// are ignored, so the raw `go test` stream can be piped in unchanged.
//
// With -baseline, the summary is additionally diffed against a previously
// written JSON file: every benchmark present in both is compared on ns/op,
// and any regression beyond -threshold (default 20%) fails the run with a
// non-zero exit — the CI perf gate. -alloc-threshold (disabled by
// default) additionally gates allocs/op the same way, so an allocation
// win locked into a baseline cannot silently erode. Benchmarks only on
// one side are reported but never fail the gate (they are new or
// retired, not slower). A diff that compares no benchmark at all fails:
// a gate whose rows are all gone would otherwise pass without checking
// anything.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	baseline := fs.String("baseline", "", "baseline JSON to diff against; regressions fail the run")
	threshold := fs.Float64("threshold", 0.20, "allowed fractional ns/op regression vs the baseline")
	allocThreshold := fs.Float64("alloc-threshold", -1, "allowed fractional allocs/op regression vs the baseline (negative disables the alloc gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	acc := map[string]map[string][]float64{}
	if fs.NArg() == 0 {
		if err := parse(stdin, acc); err != nil {
			return err
		}
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = parse(f, acc)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if len(acc) == 0 {
		return fmt.Errorf("no benchmark result lines found")
	}

	summary := map[string]map[string]float64{}
	for name, metrics := range acc {
		m := map[string]float64{}
		for unit, samples := range metrics {
			sum := 0.0
			for _, v := range samples {
				sum += v
			}
			m[unit] = sum / float64(len(samples))
			m["samples"] = float64(len(samples))
		}
		summary[name] = m
	}

	buf, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		if _, err := stdout.Write(buf); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	if *baseline == "" {
		return nil
	}
	return diffBaseline(stdout, *baseline, summary, *threshold, *allocThreshold)
}

// diffBaseline compares the current summary's ns/op (and, with a
// non-negative allocThreshold, allocs/op) means against a prior benchjson
// artifact and errors out on any regression beyond the threshold, or when
// no benchmark's ns/op was on both sides to compare.
func diffBaseline(w io.Writer, path string, cur map[string]map[string]float64, threshold, allocThreshold float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	base := map[string]map[string]float64{}
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions []string
	compared := 0
	gate := func(name, unit string, limit float64) {
		curV, ok := cur[name][unit]
		if !ok {
			return
		}
		baseV, ok := base[name][unit]
		if !ok {
			return
		}
		if unit == "ns/op" {
			compared++
		}
		// A zero-alloc baseline admits only zero; ns/op is never zero.
		if baseV == 0 {
			if curV > 0 {
				regressions = append(regressions,
					fmt.Sprintf("%s: 0 -> %.0f %s (baseline was allocation-free)", name, curV, unit))
			}
			return
		}
		ratio := curV / baseV
		fmt.Fprintf(w, "benchjson: %-60s %12.0f -> %12.0f %s (%+.1f%%)\n",
			name, baseV, curV, unit, 100*(ratio-1))
		if ratio > 1+limit {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f %s (%+.1f%% > %.0f%%)",
					name, baseV, curV, unit, 100*(ratio-1), 100*limit))
		}
	}
	for _, name := range names {
		if _, ok := cur[name]["ns/op"]; !ok {
			continue
		}
		if _, ok := base[name]; !ok {
			fmt.Fprintf(w, "benchjson: %-60s new (no baseline entry)\n", name)
			continue
		}
		gate(name, "ns/op", threshold)
		if allocThreshold >= 0 {
			gate(name, "allocs/op", allocThreshold)
		}
	}
	for name := range base {
		if _, ok := cur[name]; !ok {
			fmt.Fprintf(w, "benchjson: %-60s retired (baseline only)\n", name)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s) vs %s:\n  %s",
			len(regressions), path, strings.Join(regressions, "\n  "))
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark shares an ns/op row with %s: nothing was compared", path)
	}
	return nil
}

// resultLine matches one benchmark result: name (with the trailing
// -GOMAXPROCS suffix), the iteration count, then value/unit pairs.
var resultLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(\S.*)$`)

// parse folds every benchmark result line of r into acc, keyed by
// benchmark name then metric unit.
func parse(r io.Reader, acc map[string]map[string][]float64) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := resultLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return fmt.Errorf("odd value/unit fields in %q", sc.Text())
		}
		if acc[name] == nil {
			acc[name] = map[string][]float64{}
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("bad value %q in %q: %w", fields[i], sc.Text(), err)
			}
			unit := fields[i+1]
			acc[name][unit] = append(acc[name][unit], v)
		}
	}
	return sc.Err()
}
