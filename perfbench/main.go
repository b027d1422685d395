// Command perfbench is the repository's end-to-end benchmark. One run
// measures one seeded workload against the tree it was built from and
// prints its metrics; the last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// run.sh builds cdsd and this harness from source and execs the harness
// from the repository root. With --trace 0 the run reports the
// end-to-end metrics of the named workload. With --trace 1 it runs every
// workload, each once untraced and once traced, and reports the
// per-layer metrics of all of them: the per-layer set is per workload,
// and a traced run has to report the whole set. NOTES.md says why each
// workload exists and which end-to-end metric each layer metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// tailQ is the percentile every workload reports as tail_ms. The p99 is
// set by a few percent of the ops in three workloads (the energy
// refreshes of the largest EL sessions, the NR/const lifetime cells at
// N ≥ 75, the scheduling of two serve callers and cdsd on two shared
// vCPUs) and moved by a quarter between runs of the same code; scratch's
// ~70-ms ops give too few samples for it. The report still prints it.
const tailQ = 0.90

// A workload is one seeded input set and the loop that drives it.
type workload struct {
	name string
	// gen builds every input and oracle answer from the seed.
	gen func(seed uint64, sz sizing) (inputs, error)
}

// inputs is one workload's generated input set.
type inputs interface {
	digest() uint64
	// measure runs setupRuns set-ups and one timed phase untraced.
	measure(env *env, dur time.Duration, setupRuns int) (*e2eRun, error)
	// layers runs an untraced and a traced pass of dur each and returns
	// the per-layer metrics, unprefixed.
	layers(env *env, dur time.Duration) (*layerRun, error)
}

var workloads = []workload{
	{name: "serve", gen: genServe},
	{name: "sessions", gen: genSessions},
	{name: "scratch", gen: genScratch},
	{name: "lifetime", gen: genLifetime},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what every workload run needs besides its inputs.
type env struct {
	cdsd  string    // cdsd binary
	log   io.Writer // progress lines
	seed  uint64
	spans string // directory for span dumps ("" = none)
}

// setupRuns is how many times a timed run sets up; setup_s is their
// median. The last set-up is the one the timed phase runs on.
const setupRuns = 5

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve, sessions, scratch or lifetime")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics of every workload")
	cdsd := fs.String("cdsd", "", "cdsd binary built from the tree under test")
	spans := fs.String("spans", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloadByName(*name)
	switch {
	case fs.NArg() > 0:
		return 2, fmt.Errorf("unexpected arguments %v", fs.Args())
	case !ok:
		return 2, fmt.Errorf("unknown workload %q", *name)
	case *seconds <= 0:
		return 2, fmt.Errorf("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		return 2, fmt.Errorf("-trace must be 0 or 1")
	case *cdsd == "":
		return 2, fmt.Errorf("-cdsd is required")
	}
	if _, err := os.Stat(*cdsd); err != nil {
		return 2, fmt.Errorf("cdsd binary: %w", err)
	}
	e := &env{cdsd: *cdsd, log: stderr, seed: *seed, spans: *spans}
	dur := time.Duration(*seconds * float64(time.Second))

	rec := newRunRecord(w.name, *seed, *trace)
	var res *result
	var err error
	if *trace == 0 {
		res, err = measureWorkload(e, w, full, dur, rec)
	} else {
		res, err = traceAll(e, w, full, dur, rec)
	}
	if err != nil {
		return 1, err
	}
	rec.finish()
	printRecord(stdout, rec)
	printResult(stdout, res)
	if !res.Correct {
		return 1, fmt.Errorf("%d problem(s); see the report above", len(res.problems))
	}
	return 0, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	lines    []string // human-readable report, printed before the JSON
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, res *result) {
	for _, l := range res.lines {
		fmt.Fprintln(w, l)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "PROBLEM", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		// Only a non-finite value can fail here; report it as a problem
		// rather than print an invalid line.
		res.Correct = false
		res.Metrics = map[string]metric{}
		b, _ = json.Marshal(res)
	}
	fmt.Fprintln(w, string(b))
}

// measureWorkload is the untraced run: end-to-end metrics of one
// workload.
func measureWorkload(e *env, w workload, sz sizing, dur time.Duration, rec *runRecord) (*result, error) {
	fmt.Fprintf(e.log, "perfbench: generating %s inputs (seed %d)\n", w.name, e.seed)
	in, err := w.gen(e.seed, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	rec.Inputs[w.name] = fmt.Sprintf("%016x", in.digest())
	fmt.Fprintf(e.log, "perfbench: %s: %d set-ups, then %v timed\n", w.name, setupRuns, dur)
	r, err := in.measure(e, dur, setupRuns)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{Attempted: r.attempted, Failed: r.failed, problems: r.problems}
	res.Metrics, res.lines = r.metrics(w)
	res.problems = append(res.problems, r.guardProblems...)
	if r.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%s: %d of %d ops failed", w.name, r.failed, r.attempted))
	}
	res.Correct = len(res.problems) == 0
	return res, nil
}

// traceAll is the traced run: every workload's per-layer metrics, the
// named workload first.
func traceAll(e *env, first workload, sz sizing, dur time.Duration, rec *runRecord) (*result, error) {
	order := []workload{first}
	for _, w := range workloads {
		if w.name != first.name {
			order = append(order, w)
		}
	}
	res := &result{Metrics: map[string]metric{}}
	// Each workload gets half the run's length, a quarter untraced and a
	// quarter traced, so that a traced run takes about as long as two
	// untraced ones.
	pass := dur / 4
	for _, w := range order {
		fmt.Fprintf(e.log, "perfbench: generating %s inputs (seed %d)\n", w.name, e.seed)
		in, err := w.gen(e.seed, sz)
		if err != nil {
			return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
		}
		rec.Inputs[w.name] = fmt.Sprintf("%016x", in.digest())
		fmt.Fprintf(e.log, "perfbench: %s: untraced and traced passes of %v\n", w.name, pass)
		lr, err := in.layers(e, pass)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Attempted += lr.attempted
		res.Failed += lr.failed
		res.problems = append(res.problems, lr.problems...)
		if lr.failed > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%s: %d of %d ops failed", w.name, lr.failed, lr.attempted))
		}
		for _, m := range lr.order {
			res.Metrics[w.name+"."+m] = lr.metrics[m]
			res.lines = append(res.lines, fmt.Sprintf("%-9s %-36s %14.4f %s", w.name, m, lr.metrics[m].Value, lr.metrics[m].Unit))
		}
	}
	res.Correct = len(res.problems) == 0
	return res, nil
}

// runRecord is the per-run environment record printed before the result.
type runRecord struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      int               `json:"trace"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"numcpu"`
	GoVersion  string            `json:"go_version"`
	Inputs     map[string]string `json:"input_digests"`
	StealTicks int64             `json:"host_steal_ticks"`
	WallS      float64           `json:"wall_s"`

	start      time.Time
	stealStart int64
}

func newRunRecord(name string, seed uint64, trace int) *runRecord {
	return &runRecord{
		Workload:   name,
		Seed:       seed,
		Trace:      trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Inputs:     map[string]string{},
		start:      time.Now(),
		stealStart: stealTicks(),
	}
}

func (r *runRecord) finish() {
	r.StealTicks = stealTicks() - r.stealStart
	r.WallS = time.Since(r.start).Seconds()
}

func printRecord(w io.Writer, r *runRecord) {
	b, _ := json.Marshal(r) // plain struct of strings and numbers
	fmt.Fprintln(w, "run", string(b))
}
