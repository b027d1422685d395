package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the fewest samples a reported percentile must leave above
// it; with fewer, one slow op moves the percentile.
const minBeyond = 10

// inf is the latency of a failed op: it misses every limit.
var inf = math.Inf(1)

// quantile returns the nearest-rank q-quantile of sorted and the number
// of samples above it, refusing when fewer than minBeyond lie above.
func quantile(sorted []float64, q float64) (float64, int, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n || n-rank < minBeyond {
		return 0, 0, fmt.Errorf("p%g of %d samples leaves %d above it, want at least %d", q*100, n, max(n-rank, 0), minBeyond)
	}
	return sorted[rank-1], n - rank, nil
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// e2eRun is the raw outcome of one untraced timed phase.
type e2eRun struct {
	setups    []float64 // seconds, one per set-up
	lat       []float64 // ms per attempted op; a failed op is +Inf
	attempted int
	failed    int
	wall      time.Duration // timed phase, first send to last reply
	cpu       time.Duration // program user+sys CPU over the timed phase
	hwmKB     int64         // program VmHWM at the end of the timed phase
	problems  []string

	guardProblems []string
}

// metrics turns the run into the end-to-end metrics and report lines.
func (r *e2eRun) metrics(w workload) (map[string]metric, []string) {
	out := map[string]metric{}
	var lines []string
	put := func(name string, v float64, unit, note string) {
		out[name] = metric{Value: v, Unit: unit}
		lines = append(lines, fmt.Sprintf("%-9s %-12s %12.4f %-4s %s", w.name, name, v, unit, note))
	}
	put("setup_s", median(r.setups), "s", fmt.Sprintf("median of %d set-ups %v", len(r.setups), roundAll(r.setups, 4)))
	sorted := sortedCopy(r.lat)
	if v, beyond, err := quantile(sorted, 0.5); err != nil {
		r.guardProblems = append(r.guardProblems, w.name+": p50_ms: "+err.Error())
	} else {
		put("p50_ms", v, "ms", fmt.Sprintf("n=%d, %d above", len(sorted), beyond))
	}
	for _, q := range []float64{0.9, 0.99} {
		name := fmt.Sprintf("p%g_ms", q*100)
		v, beyond, err := quantile(sorted, q)
		switch {
		case q == tailQ && err != nil:
			r.guardProblems = append(r.guardProblems, w.name+": "+name+": "+err.Error())
		case q == tailQ:
			put("tail_ms", v, "ms", fmt.Sprintf("%s: n=%d, %d above", name, len(sorted), beyond))
		case err == nil:
			// Not the reported tail: shown for reference only.
			lines = append(lines, fmt.Sprintf("%-9s %-12s %12.4f %-4s n=%d, %d above (not reported)", w.name, name, v, "ms", len(sorted), beyond))
		}
	}
	ok := r.attempted - r.failed
	put("ops_per_s", float64(ok)/r.wall.Seconds(), "1/s", fmt.Sprintf("%d ok of %d attempted in %.3fs", ok, r.attempted, r.wall.Seconds()))
	if ok > 0 {
		put("cpu_ms_per_op", float64(r.cpu)/float64(time.Millisecond)/float64(ok), "ms", fmt.Sprintf("%.3fs CPU", r.cpu.Seconds()))
	}
	put("peak_rss_mb", float64(r.hwmKB)/1024, "MiB", "VmHWM")
	lines = append(lines, fmt.Sprintf("%-9s failed %d of %d attempted (%.4f%%)", w.name, r.failed, r.attempted, 100*float64(r.failed)/float64(max(r.attempted, 1))))
	return out, lines
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

// layerRun is the outcome of one workload's untraced and traced passes.
type layerRun struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	order     []string
}

func newLayerRun() *layerRun { return &layerRun{metrics: map[string]metric{}} }

func (l *layerRun) put(name string, v float64, unit string) {
	if _, dup := l.metrics[name]; !dup {
		l.order = append(l.order, name)
	}
	l.metrics[name] = metric{Value: v, Unit: unit}
}

// putP50 reports the median of samples (µs per call), or a problem when
// the sample is too small to report one.
func (l *layerRun) putP50(name string, samples []float64) {
	v, _, err := quantile(sortedCopy(samples), 0.5)
	if err != nil {
		l.problems = append(l.problems, name+": "+err.Error())
		return
	}
	l.put(name, v, "us")
}

// putBinnedP50 reports the median of samples that cdsd truncated to whole
// µs: a recorded k stands for a time in [k, k+1), so the median is
// interpolated inside its bin. A nearest-rank median of a 2-µs stage would
// read exactly 2 on every run.
func (l *layerRun) putBinnedP50(name string, samples []float64) {
	s := sortedCopy(samples)
	if _, _, err := quantile(s, 0.5); err != nil {
		l.problems = append(l.problems, name+": "+err.Error())
		return
	}
	half := float64(len(s)) / 2
	k := s[int(math.Ceil(half))-1]
	below := sort.SearchFloat64s(s, k)
	upTo := sort.Search(len(s), func(i int) bool { return s[i] > k })
	l.put(name, k+(half-float64(below))/float64(upTo-below), "us")
}

func (l *layerRun) problemf(format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

// overhead reports tracing overhead: the share of untraced throughput the
// traced pass lost. Noise makes it negative at times.
func (l *layerRun) overhead(untracedOps, tracedOps float64) {
	l.put("trace.overhead", 1-tracedOps/untracedOps, "ratio")
}

// --- Spans ---

// span is one timed call into a layer, recorded by the harness around
// the call (or joined from cdsd's trace ring). Times are ns since the
// tracer's epoch; parent is an index into the same tracer, -1 for an op's
// root span.
type span struct {
	name       string
	op         int32
	parent     int32
	start, end int64
}

// tracer keeps spans in memory for one goroutine; merge joins tracers
// after the pass.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time, capHint int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capHint)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, op, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(i int32) { t.spans[i].end = t.now() }

// add records an already-measured span.
func (t *tracer) add(name string, op, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// durUS returns the per-call durations of every span called name, in µs.
func (t *tracer) durUS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// selfUS returns, per span called name, its duration minus the part its
// children cover (children never overlap in this harness), in µs.
func (t *tracer) selfUS(name string) []float64 {
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start-child[int32(i)])/1e3)
		}
	}
	return out
}

// merge appends other's spans, rebasing their parent indexes.
func (t *tracer) merge(other *tracer) {
	base := int32(len(t.spans))
	for _, s := range other.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// write dumps the spans as CSV: op,parent,index,name,start_ns,end_ns.
func (t *tracer) write(dir, file string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,parent,index,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.op, s.parent, i, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- /proc readers ---

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user+sys CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM returns a process's peak resident set (VmHWM) in KiB.
func procHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS returns freed heap to the OS and restarts this process's
// VmHWM from its current RSS (Linux clear_refs 5), so the peak covers what
// follows rather than input generation.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfCPU returns this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks returns the host's cumulative steal time from /proc/stat
// (0 when unreadable).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
