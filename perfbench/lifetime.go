package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"pacds/internal/cds"
	"pacds/internal/energy"
	"pacds/internal/sim"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// lifetime: in-process, one goroutine. An op is one
// sim.Run(sim.PaperConfig(...)) of a Figure 11–13 cell: N on a grid over
// the paper's 20–100 range, every policy NR/ID/ND/EL1/EL2 and every drain
// model, each cell with its own seed. The cell list is the same design
// for every seed and the timed phase visits it in a seeded shuffled
// order, so runs with different seeds see the same mix of cheap and
// expensive cells. Set-up runs the first cells in design order (the
// smallest N), so its work does not depend on the shuffle.

const saltLife = 0x11fe000000000001

var lifeDrains = []energy.DrainModel{energy.Constant{}, energy.Linear{}, energy.Quadratic{}}

type lifeCell struct {
	n      int
	policy cds.Policy
	drain  energy.DrainModel
	seed   uint64
}

func (c lifeCell) config() sim.Config { return sim.PaperConfig(c.n, c.policy, c.drain, c.seed) }

type lifeInputs struct {
	cells []lifeCell     // in design order: N-major, then policy, then drain
	order []int          // the timed phase's visiting order
	want  []*sim.Metrics // the replay's outcome per cell
	warm  int
	dig   uint64
}

func (in *lifeInputs) digest() uint64 { return in.dig }

func genLifetime(seed uint64, sz sizing) (inputs, error) {
	in := &lifeInputs{warm: sz.lifeWarm}
	for n := sz.lifeNMin; n <= sz.lifeNMax; n += sz.lifeNStep {
		for _, p := range cds.Policies {
			for _, d := range lifeDrains {
				in.cells = append(in.cells, lifeCell{n: n, policy: p, drain: d})
			}
		}
	}
	rng := xrand.New(mix(seed, saltLife))
	dg := newDigester()
	for i := range in.cells {
		in.cells[i].seed = rng.Uint64()
		dg.int(int(in.cells[i].seed))
	}
	in.order = rng.Perm(len(in.cells))
	for _, i := range in.order {
		dg.int(i)
	}
	in.dig = dg.sum()

	in.want = make([]*sim.Metrics, len(in.cells))
	errs := make([]error, len(in.cells))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(in.cells); i += 2 {
				in.want[i], errs[i] = replayLife(in.cells[i].config(), nil, 0)
			}
		}()
	}
	wg.Wait()
	if err := firstErr(errs...); err != nil {
		return nil, err
	}
	return in, nil
}

// replayLife re-runs sim.Run's interval loop through the layers' public
// calls, with a span around each call when tr is set. It must reproduce
// sim.Run's outcome exactly; the benchmark checks that on every op.
func replayLife(cfg sim.Config, tr *tracer, op int32) (*sim.Metrics, error) {
	root := int32(-1)
	span := func(name string) int32 {
		if tr == nil {
			return -1
		}
		return tr.begin(name, op, root)
	}
	end := func(s int32) {
		if tr != nil {
			tr.finish(s)
		}
	}
	if tr != nil {
		root = tr.begin("op", op, -1)
		defer tr.finish(root)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	maxIntervals := cfg.MaxIntervals
	if maxIntervals <= 0 {
		maxIntervals = 100000
	}
	rng := xrand.New(cfg.Seed)
	placeRNG := rng.Split(1)
	moveRNG := rng.Split(2)
	s := span("udg.place")
	inst, err := udg.RandomConnected(udg.Config{N: cfg.N, Field: cfg.Field, Radius: cfg.Radius}, placeRNG, 5000)
	end(s)
	if err != nil {
		return nil, err
	}
	levels := energy.NewLevels(cfg.N, cfg.InitialEnergy)
	el := make([]float64, cfg.N)
	m := &sim.Metrics{FirstDead: -1}
	for interval := 1; ; interval++ {
		for v := range el {
			el[v] = levels.Level(v)
		}
		s = span("cds.compute")
		res, err := cds.Compute(inst.Graph, cfg.Policy, el)
		end(s)
		if err != nil {
			return nil, err
		}
		s = span("graph.connected")
		connected := inst.Graph.IsConnected()
		end(s)
		if !connected {
			m.DisconnectedIntervals++
		}
		m.GatewayCounts = append(m.GatewayCounts, res.NumGateways())
		s = span("energy.drain")
		energy.ApplyInterval(levels, res.Gateway, cfg.Drain, cfg.NonGatewayDrain)
		end(s)
		if levels.AnyDead() {
			m.Intervals = interval
			for v := 0; v < cfg.N; v++ {
				if !levels.Alive(v) {
					m.FirstDead = v
					break
				}
			}
			break
		}
		if interval >= maxIntervals {
			m.Intervals = interval
			m.Truncated = true
			break
		}
		s = span("mobility.step")
		cfg.Mobility.Step(inst.Positions, cfg.Field, moveRNG)
		end(s)
		s = span("udg.rebuild")
		inst.Rebuild()
		end(s)
	}
	total := 0
	for _, c := range m.GatewayCounts {
		total += c
	}
	if len(m.GatewayCounts) > 0 {
		m.MeanGateways = float64(total) / float64(len(m.GatewayCounts))
	}
	m.ResidualEnergy = levels.Total()
	m.ResidualVariance = levels.Variance()
	return m, nil
}

type lifeOps struct {
	latMS []float64
	cell  []int
	out   []*sim.Metrics
	errs  []error
}

// warmUp runs the first warm cells in design order.
func (in *lifeInputs) warmUp() *lifeOps {
	ops := &lifeOps{}
	for c := 0; c < in.warm; c++ {
		m, err := sim.Run(in.cells[c].config())
		ops.latMS = append(ops.latMS, 0)
		ops.cell = append(ops.cell, c)
		ops.out = append(ops.out, m)
		ops.errs = append(ops.errs, err)
	}
	return ops
}

// runOps visits the cells in the shuffled order until deadline: sim.Run
// itself, or the traced replay when tr is set.
func (in *lifeInputs) runOps(deadline time.Time, tr *tracer) *lifeOps {
	ops := &lifeOps{}
	for i := 0; time.Now().Before(deadline); i++ {
		c := in.order[i%len(in.order)]
		t0 := time.Now()
		var m *sim.Metrics
		var err error
		if tr == nil {
			m, err = sim.Run(in.cells[c].config())
		} else {
			m, err = replayLife(in.cells[c].config(), tr, int32(i))
		}
		ops.latMS = append(ops.latMS, float64(time.Since(t0))/1e6)
		ops.cell = append(ops.cell, c)
		ops.out = append(ops.out, m)
		ops.errs = append(ops.errs, err)
	}
	return ops
}

func (in *lifeInputs) check(ops *lifeOps) (failed int, problems []string) {
	for i, m := range ops.out {
		c := ops.cell[i]
		err := ops.errs[i]
		if err == nil && !reflect.DeepEqual(m, in.want[c]) {
			err = fmt.Errorf("outcome %+v, replay %+v", *m, *in.want[c])
		}
		if err != nil {
			failed++
			ops.latMS[i] = inf
			if len(problems) < 3 {
				problems = append(problems, fmt.Sprintf("lifetime op %d (cell %d): %v", i, c, err))
			}
		}
	}
	return failed, problems
}

func (in *lifeInputs) measure(e *env, dur time.Duration, setups int) (*e2eRun, error) {
	r := &e2eRun{}
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		warm := in.warmUp()
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if failed, probs := in.check(warm); failed > 0 {
			r.problems = append(r.problems, probs...)
		}
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	start := time.Now()
	ops := in.runOps(start.Add(dur), nil)
	r.wall = time.Since(start)
	r.cpu = selfCPU() - cpu0
	hwm, err := procHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.hwmKB = hwm
	var probs []string
	r.failed, probs = in.check(ops)
	r.problems = append(r.problems, probs...)
	r.attempted = len(ops.latMS)
	r.lat = ops.latMS
	return r, nil
}

func (in *lifeInputs) layers(e *env, dur time.Duration) (*layerRun, error) {
	lr := newLayerRun()
	in.warmUp()

	runtime.GC()
	start := time.Now()
	plain := in.runOps(start.Add(dur), nil)
	plainOps := float64(len(plain.latMS)) / time.Since(start).Seconds()

	runtime.GC()
	start = time.Now()
	tr := newTracer(start, 1<<18)
	traced := in.runOps(start.Add(dur), tr)
	tracedOps := float64(len(traced.latMS)) / time.Since(start).Seconds()
	if err := tr.write(e.spans, fmt.Sprintf("lifetime-seed%d.csv", e.seed)); err != nil {
		return nil, err
	}
	for _, ops := range []*lifeOps{plain, traced} {
		failed, probs := in.check(ops)
		lr.attempted += len(ops.latMS)
		lr.failed += failed
		lr.problems = append(lr.problems, probs...)
	}

	lr.putP50("udg.rebuild_us", tr.durUS("udg.rebuild"))
	lr.putP50("cds.compute_us", tr.durUS("cds.compute"))
	lr.putP50("mobility.step_us", tr.durUS("mobility.step"))
	lr.putP50("energy.drain_us", tr.durUS("energy.drain"))
	lr.putP50("graph.connected_us", tr.durUS("graph.connected"))
	// Counts over one pass of the cell list: the base for per-interval
	// rates.
	intervals, gateways := 0, 0
	for _, m := range in.want {
		intervals += m.Intervals
		for _, g := range m.GatewayCounts {
			gateways += g
		}
	}
	lr.put("sim.intervals", float64(intervals), "count")
	lr.put("cds.gateways", float64(gateways), "count")
	lr.overhead(plainOps, tracedOps)
	return lr, nil
}
