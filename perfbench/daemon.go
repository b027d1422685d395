package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pacds/internal/obs"
)

// daemon is one cdsd child process on loopback.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	stderr  *tailBuffer
	drained chan struct{} // closed once the child's stdout hits EOF
}

// opTimeout bounds one request; a request past it counts as failed.
const opTimeout = 30 * time.Second

// startDaemon execs cdsd, reads its port from the "cdsd listening on"
// line and waits for /healthz/ready. traceCap 0 turns tracing off.
func startDaemon(bin string, traceCap int) (*daemon, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-trace-capacity", strconv.Itoa(traceCap),
		"-debug=false",
		"-log-level", "warn")
	// The child dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: &tailBuffer{max: 8 << 10}, drained: make(chan struct{})}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cdsd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "cdsd listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("cdsd exited before listening: %s", d.stderr)
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("cdsd did not print its address within 10s")
	}
	// Two keep-alive connections: one per caller.
	d.client = &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
			DisableCompression:  true,
		},
	}
	if err := d.waitReady(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := d.client.Get(d.base + "/healthz/ready")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cdsd not ready within %v: %s", limit, d.stderr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks cdsd to drain and waits for it to exit, killing it if it
// takes longer than its own drain deadline allows.
func (d *daemon) stop() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-d.drained
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		return <-done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// call sends one request and reads the whole reply into buf. traceID 0
// sends no X-Trace-Id.
func (d *daemon) call(method, path string, body []byte, traceID uint64, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceID != 0 {
		req.Header.Set(obs.TraceHeader, obs.FormatTraceID(traceID))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// getJSON fetches path and decodes the reply into v.
func (d *daemon) getJSON(path string, v any) error {
	var buf bytes.Buffer
	status, err := d.call(http.MethodGet, path, nil, 0, &buf)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// traces reads the whole trace ring, keyed by trace id.
func (d *daemon) traces() (map[string]*obs.TraceRecord, error) {
	var tr obs.TracesResponse
	if err := d.getJSON("/debug/traces?n=0", &tr); err != nil {
		return nil, err
	}
	out := make(map[string]*obs.TraceRecord, len(tr.Traces))
	for _, rec := range tr.Traces {
		out[rec.TraceID] = rec
	}
	return out, nil
}

// counter reads one sample of cdsd's Prometheus text exposition.
func (d *daemon) counter(name string) (float64, error) {
	var buf bytes.Buffer
	status, err := d.call(http.MethodGet, "/metrics", nil, 0, &buf)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d", status)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, nil // a counter never incremented is not exported yet
}

// usage reads the child's CPU time and peak RSS.
func (d *daemon) usage() (time.Duration, int64, error) {
	cpu, err := procCPU(d.pid())
	if err != nil {
		return 0, 0, err
	}
	hwm, err := procHWM(d.pid())
	return cpu, hwm, err
}

// tailBuffer keeps the last max bytes written to it (cdsd's stderr).
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = t.b[len(t.b)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.b))
}

// opLog is one caller's record of a timed phase: per-op latency, status
// and reply bytes, kept for checking after the clock stops.
type opLog struct {
	latMS  []float64
	status []int
	errs   []error
	off    []int // reply i is body[off[i]:off[i+1]]
	body   []byte
}

func newOpLog(capHint int) *opLog {
	return &opLog{off: make([]int, 1, capHint+1)}
}

func (l *opLog) record(latMS float64, status int, err error, reply []byte) {
	l.latMS = append(l.latMS, latMS)
	l.status = append(l.status, status)
	l.errs = append(l.errs, err)
	l.body = append(l.body, reply...)
	l.off = append(l.off, len(l.body))
}

func (l *opLog) reply(i int) []byte { return l.body[l.off[i]:l.off[i+1]] }

func (l *opLog) ok(i int) bool { return l.errs[i] == nil && l.status[i] >= 200 && l.status[i] < 300 }

// quietClient stops the harness's own garbage collector until the
// returned func is called, so a client-side collection does not take a
// core from cdsd mid-phase. The memory limit keeps a runaway phase from
// growing without bound.
func quietClient() (restore func()) {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(512 << 20)
	return func() {
		debug.SetGCPercent(gc)
		debug.SetMemoryLimit(limit)
	}
}

// pass runs callers concurrently from one start instant until deadline
// and returns the wall time from that instant to the last reply.
func pass(callers int, dur time.Duration, loop func(c int, deadline time.Time)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(c, deadline)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// mustDecode decodes as cdsd does; the bodies are the harness's own, so
// a failure is a harness bug.
func mustDecode(body []byte, v any) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		panic("perfbench: decoding a generated body: " + err.Error())
	}
}

// joinStats joins cdsd's trace ring to the client spans of a traced pass
// and checks that the times reconcile: client latency = transport + root
// span, and root span = stage spans + unattributed time.
type joinStats struct {
	joined       int
	violations   int
	examples     []string
	stage        map[string][]float64 // per-call µs by cdsd stage name
	root         []float64
	transport    []float64
	unattributed []float64
}

func (j *joinStats) join(tr *tracer, rings map[string]*obs.TraceRecord, idOf func(op int32) uint64) {
	if j.stage == nil {
		j.stage = map[string][]float64{}
	}
	n := len(tr.spans) // only the client spans; joined spans are appended
	for i := 0; i < n; i++ {
		cs := tr.spans[i]
		if cs.parent != -1 {
			continue
		}
		rec := rings[obs.FormatTraceID(idOf(cs.op))]
		if rec == nil {
			continue
		}
		j.joined++
		clientUS := float64(cs.end-cs.start) / 1e3
		j.root = append(j.root, float64(rec.DurUS))
		j.transport = append(j.transport, clientUS-float64(rec.DurUS))
		start := time.UnixMicro(rec.StartUnixUS).Sub(tr.epoch).Nanoseconds()
		root := tr.add("cdsd."+rec.Name, cs.op, int32(i), start, start+rec.DurUS*1000)
		var sum int64
		for _, s := range rec.Spans {
			j.stage[s.Name] = append(j.stage[s.Name], float64(s.DurUS))
			sum += s.DurUS
			tr.add("cdsd."+s.Name, cs.op, root, start+s.StartUS*1000, start+(s.StartUS+s.DurUS)*1000)
		}
		j.unattributed = append(j.unattributed, float64(rec.DurUS-sum))
		// Span times are whole µs, truncated: allow 1µs per span.
		if clientUS < float64(rec.DurUS)-1 || rec.DurUS-sum < -int64(len(rec.Spans)) {
			j.violations++
			if len(j.examples) < 3 {
				j.examples = append(j.examples, fmt.Sprintf("client %.1fus, root %dus, stages %dus", clientUS, rec.DurUS, sum))
			}
		}
	}
}

// report adds the join share and fails the run when the identities do
// not hold.
func (j *joinStats) report(lr *layerRun, name string, traced int) {
	lr.put("trace.join_share", float64(j.joined)/float64(max(traced, 1)), "ratio")
	if j.joined < traced {
		lr.problemf("%s: only %d of %d traced ops joined a cdsd trace", name, j.joined, traced)
	}
	if j.violations > 0 {
		lr.problemf("%s: %d traced ops do not reconcile (client < root span, or stage spans > root span): %v", name, j.violations, j.examples)
	}
}
