package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"pacds/internal/cds"
	"pacds/internal/geom"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// scratch: in-process, one goroutine, workers=1. An op is the positions-in
// → gateways-out pipeline of BenchmarkComputePipeline (udg.BuildParallel,
// cds.MarkParallelInto, cds.ApplyRulesParallelInto under ND) into reused
// buffers, cycling through a few seeded N = 10⁴ deployments.

const saltScratch = 0x5c2a7c0000000001

type scratchInputs struct {
	n       int
	field   geom.Rect
	deploys [][]geom.Point
	want    [][]bool // cds.Compute's gateways per deployment
	warm    int
	dig     uint64
}

func (in *scratchInputs) digest() uint64 { return in.dig }

func genScratch(seed uint64, sz sizing) (inputs, error) {
	in := &scratchInputs{n: sz.scratchN, field: paperField(sz.scratchN), warm: sz.scratchWarm,
		deploys: make([][]geom.Point, sz.scratchDeploys), want: make([][]bool, sz.scratchDeploys)}
	errs := make([]error, sz.scratchDeploys)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := w; d < len(in.deploys); d += 2 {
				rng := xrand.New(mix(seed, saltScratch, uint64(d)))
				pos := udg.RandomPositions(udg.Config{N: in.n, Field: in.field, Radius: radius}, rng)
				res, err := cds.Compute(udg.Build(pos, in.field, radius), cds.ND, nil)
				if err != nil {
					errs[d] = err
					continue
				}
				in.deploys[d], in.want[d] = pos, res.Gateway
			}
		}()
	}
	wg.Wait()
	dg := newDigester()
	for d, pos := range in.deploys {
		if errs[d] != nil {
			return nil, errs[d]
		}
		for _, p := range pos {
			dg.float(p.X)
			dg.float(p.Y)
		}
	}
	in.dig = dg.sum()
	return in, nil
}

// scratchOps records each op's latency, deployment and output.
type scratchOps struct {
	latMS  []float64
	deploy []int
	out    [][]bool
}

// runOps runs the pipeline from op first on until deadline (or count ops
// when count > 0). With tr set it records a span per stage and the
// allocations of each layer.
func (in *scratchInputs) runOps(first, count int, deadline time.Time, marked, gateway []bool, tr *tracer, allocs *[2][]float64) *scratchOps {
	ops := &scratchOps{}
	var ms runtime.MemStats
	// mallocs reads the allocation count inside a span of its own:
	// ReadMemStats stops the world, which is harness time, not a layer's.
	mallocs := func(op, root int32) uint64 {
		s := tr.begin("harness.memstats", op, root)
		runtime.ReadMemStats(&ms)
		tr.finish(s)
		return ms.Mallocs
	}
	for i := first; ; i++ {
		if count > 0 && i-first == count || count == 0 && !time.Now().Before(deadline) {
			break
		}
		d := i % len(in.deploys)
		pos := in.deploys[d]
		t0 := time.Now()
		if tr == nil {
			g := udg.BuildParallel(pos, in.field, radius, 1)
			cds.MarkParallelInto(g, marked, 1)
			if err := cds.ApplyRulesParallelInto(g, cds.ND, marked, nil, 1, gateway); err != nil {
				panic(err) // ND needs no energy: unreachable
			}
		} else {
			op := int32(i - first)
			root := tr.begin("op", op, -1)
			m0 := mallocs(op, root)
			s := tr.begin("udg.build", op, root)
			g := udg.BuildParallel(pos, in.field, radius, 1)
			tr.finish(s)
			m1 := mallocs(op, root)
			s = tr.begin("cds.mark", op, root)
			cds.MarkParallelInto(g, marked, 1)
			tr.finish(s)
			s = tr.begin("cds.rules", op, root)
			err := cds.ApplyRulesParallelInto(g, cds.ND, marked, nil, 1, gateway)
			tr.finish(s)
			m2 := mallocs(op, root)
			tr.finish(root)
			if err != nil {
				panic(err)
			}
			allocs[0] = append(allocs[0], float64(m1-m0))
			allocs[1] = append(allocs[1], float64(m2-m1))
		}
		ops.latMS = append(ops.latMS, float64(time.Since(t0))/1e6)
		ops.deploy = append(ops.deploy, d)
		ops.out = append(ops.out, slices.Clone(gateway))
	}
	return ops
}

// check counts the ops whose gateways differ from cds.Compute's and
// turns their latency into +Inf.
func (in *scratchInputs) check(ops *scratchOps) (failed int, problems []string) {
	for i, out := range ops.out {
		if !slices.Equal(out, in.want[ops.deploy[i]]) {
			failed++
			ops.latMS[i] = inf
			if len(problems) < 3 {
				problems = append(problems, fmt.Sprintf("scratch op %d (deployment %d): gateways differ from cds.Compute", i, ops.deploy[i]))
			}
		}
	}
	return failed, problems
}

func (in *scratchInputs) measure(e *env, dur time.Duration, setups int) (*e2eRun, error) {
	r := &e2eRun{}
	var marked, gateway []bool
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		marked, gateway = make([]bool, in.n), make([]bool, in.n)
		warm := in.runOps(0, in.warm, time.Time{}, marked, gateway, nil, nil)
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
	ops := in.runOps(in.warm, 0, start.Add(dur), marked, gateway, nil, nil)
	r.wall = time.Since(start)
	r.cpu = selfCPU() - cpu0
	hwm, err := procHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.hwmKB = hwm
	r.failed, r.problems = in.check(ops)
	r.attempted = len(ops.latMS)
	r.lat = ops.latMS
	return r, nil
}

func (in *scratchInputs) layers(e *env, dur time.Duration) (*layerRun, error) {
	lr := newLayerRun()
	marked, gateway := make([]bool, in.n), make([]bool, in.n)
	in.runOps(0, in.warm, time.Time{}, marked, gateway, nil, nil)

	runtime.GC()
	start := time.Now()
	plain := in.runOps(in.warm, 0, start.Add(dur), marked, gateway, nil, nil)
	plainOps := float64(len(plain.latMS)) / time.Since(start).Seconds()

	runtime.GC()
	start = time.Now()
	tr := newTracer(start, 1<<12)
	var allocs [2][]float64
	traced := in.runOps(in.warm, 0, start.Add(dur), marked, gateway, tr, &allocs)
	tracedOps := float64(len(traced.latMS)) / time.Since(start).Seconds()
	if err := tr.write(e.spans, fmt.Sprintf("scratch-seed%d.csv", e.seed)); err != nil {
		return nil, err
	}
	for _, ops := range []*scratchOps{plain, traced} {
		failed, probs := in.check(ops)
		lr.attempted += len(ops.latMS)
		lr.failed += failed
		lr.problems = append(lr.problems, probs...)
	}

	lr.putP50("udg.build_us", tr.durUS("udg.build"))
	lr.putP50("cds.mark_us", tr.durUS("cds.mark"))
	lr.putP50("cds.rules_us", tr.durUS("cds.rules"))
	lr.put("udg.allocs_per_op", mean(allocs[0]), "count")
	lr.put("cds.allocs_per_op", mean(allocs[1]), "count")
	// The three stage spans and the allocation reads must account for the
	// op: what no span covers is the harness's own bookkeeping.
	harness := tr.selfUS("op")
	lr.putP50("harness_us", harness)
	if opUS := mean(tr.durUS("op")); opUS > 0 && mean(harness)/opUS > 0.01 {
		lr.problemf("scratch: %.1f%% of an op is in no span", 100*mean(harness)/opUS)
	}

	// Counts over the deployments, outside the timed loops; the rule
	// split replays Rule 1 and Rule 2 alone on the same marking.
	var edges, nMarked, gws, r1, r2 int
	for d, pos := range in.deploys {
		g := udg.Build(pos, in.field, radius)
		m := cds.Mark(g)
		one, err1 := cds.ApplyRule1Only(g, cds.ND, m, nil)
		two, err2 := cds.ApplyRule2Only(g, cds.ND, m, nil)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		edges += g.NumEdges()
		nMarked += cds.CountGateways(m)
		gws += cds.CountGateways(in.want[d])
		r1 += cds.CountGateways(m) - cds.CountGateways(one)
		r2 += cds.CountGateways(m) - cds.CountGateways(two)
		// The timed pipeline must see the same graph and marking.
		gp := udg.BuildParallel(pos, in.field, radius, 1)
		cds.MarkParallelInto(gp, marked, 1)
		if gp.NumEdges() != g.NumEdges() || !slices.Equal(marked, m) {
			lr.problemf("scratch: deployment %d: BuildParallel/MarkParallelInto disagree with Build/Mark", d)
		}
	}
	lr.put("udg.edges", float64(edges), "count")
	lr.put("cds.marked", float64(nMarked), "count")
	lr.put("cds.gateways", float64(gws), "count")
	lr.put("cds.rule1_removed", float64(r1), "count")
	lr.put("cds.rule2_removed", float64(r2), "count")
	lr.overhead(plainOps, tracedOps)
	return lr, nil
}
