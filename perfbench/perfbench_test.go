package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"pacds/internal/cds"
	"pacds/internal/energy"
	"pacds/internal/server"
	"pacds/internal/sim"
)

func TestInputDigest(t *testing.T) {
	for _, w := range workloads {
		a, err := w.gen(1, smoke)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := w.gen(1, smoke)
		c, _ := w.gen(2, smoke)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 1 gave digests %x and %x", w.name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %x", w.name, a.digest())
		}
	}
}

// TestSizesIndependentOfSeed: a seed changes the topologies, never how
// many hosts the serve requests and the sessions have.
func TestSizesIndependentOfSeed(t *testing.T) {
	sizes := func(seed uint64) []int {
		var ns []int
		sv, err := genServe(seed, smoke)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range sv.(*serveInputs).callers {
			for _, r := range sc.reqs {
				var req struct{ Graph server.GraphSpec }
				if err := json.Unmarshal(r.body, &req); err != nil {
					t.Fatal(err)
				}
				ns = append(ns, req.Graph.Nodes)
			}
		}
		ss, err := genSessions(seed, smoke)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ss.(*sessInputs).plans {
			ns = append(ns, p.n)
		}
		slices.Sort(ns)
		return ns
	}
	if a, b := sizes(1), sizes(2); !slices.Equal(a, b) {
		t.Errorf("seeds 1 and 2 gave different sizes:\n%v\n%v", a, b)
	}
}

func TestQuantileGuard(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		q      float64
		ok     bool
		want   float64
		beyond int
	}{
		{n: 999, q: 0.99, ok: false},
		{n: 1000, q: 0.99, ok: true, want: 990, beyond: 10},
		{n: 99, q: 0.90, ok: false},
		{n: 100, q: 0.90, ok: true, want: 90, beyond: 10},
		{n: 19, q: 0.5, ok: false},
		{n: 20, q: 0.5, ok: true, want: 10, beyond: 10},
		{n: 0, q: 0.5, ok: false},
	} {
		v, beyond, err := quantile(sample(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d: err = %v, want ok=%v", tc.q*100, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && (v != tc.want || beyond != tc.beyond) {
			t.Errorf("p%g of %d = %v with %d above, want %v with %d", tc.q*100, tc.n, v, beyond, tc.want, tc.beyond)
		}
	}
}

func TestBinnedMedian(t *testing.T) {
	var samples []float64
	for _, v := range []float64{1, 2, 3} {
		for i := 0; i < 10; i++ {
			samples = append(samples, v)
		}
	}
	lr := newLayerRun()
	lr.putBinnedP50("x", samples)
	if got := lr.metrics["x"].Value; got != 2.5 {
		t.Errorf("median of 10×1, 10×2, 10×3 whole-µs samples = %v, want 2.5", got)
	}
	lr.putBinnedP50("y", samples[:19])
	if _, ok := lr.metrics["y"]; ok || len(lr.problems) != 1 {
		t.Errorf("19 samples: metric reported or no problem (%v)", lr.problems)
	}
}

func TestLifetimeReplayMatchesSimRun(t *testing.T) {
	for _, c := range []lifeCell{
		{n: 20, policy: cds.NR, drain: energy.Constant{}, seed: 1},
		{n: 45, policy: cds.EL1, drain: energy.Linear{}, seed: 2},
		{n: 70, policy: cds.ND, drain: energy.Quadratic{}, seed: 3},
		{n: 100, policy: cds.EL2, drain: energy.Constant{}, seed: 4},
	} {
		want, err := sim.Run(c.config())
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(time.Now(), 0)
		for _, got := range []*tracer{nil, tr} {
			m, err := replayLife(c.config(), got, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, want) {
				t.Errorf("cell %+v: replay %+v, sim.Run %+v", c, m, want)
			}
		}
		if len(tr.durUS("cds.compute")) != want.Intervals {
			t.Errorf("cell %+v: %d cds.compute spans for %d intervals", c, len(tr.durUS("cds.compute")), want.Intervals)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, against a
// cdsd built from this tree: each must emit every metric BENCHMARK.json
// names, with its unit, and no op may fail. The race detector slows the
// scratch pipeline below its percentile guards; run the HTTP workloads,
// the concurrent ones, with -race -run 'TestSmoke/(serve|sessions)'.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cdsd and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "cdsd")
	if out, err := exec.Command("go", "build", "-o", bin, "pacds/cmd/cdsd").CombinedOutput(); err != nil {
		t.Fatalf("building cdsd: %v\n%s", err, out)
	}
	e := &env{cdsd: bin, log: testWriter{t}, seed: 7}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	layer := map[string]metric{}
	ran := 0
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			ran++
			in, err := w.gen(e.seed, smoke)
			if err != nil {
				t.Fatal(err)
			}
			r, err := in.measure(e, 3*time.Second, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := r.metrics(w)
			if r.failed != 0 || len(r.problems)+len(r.guardProblems) > 0 {
				t.Errorf("%d of %d ops failed; problems %v %v", r.failed, r.attempted, r.problems, r.guardProblems)
			}
			for _, m := range spec.EndToEnd {
				if v, ok := got[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			lr, err := in.layers(e, 1500*time.Millisecond)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if lr.failed != 0 || len(lr.problems) > 0 {
				t.Errorf("traced: %d of %d ops failed; problems %v", lr.failed, lr.attempted, lr.problems)
			}
			for name, m := range lr.metrics {
				layer[w.name+"."+name] = m
			}
		})
	}
	if ran < len(workloads) {
		return // -run picked some workloads: the per-layer set is incomplete
	}
	for _, m := range spec.PerLayer {
		if v, ok := layer[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("per-layer metric %s = %+v, want one in %s", m.Name, v, m.Unit)
		}
	}
	if len(layer) != len(spec.PerLayer) {
		t.Errorf("the traced run emits %d per-layer metrics, BENCHMARK.json names %d", len(layer), len(spec.PerLayer))
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
