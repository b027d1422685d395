package pacds

// One benchmark per table/figure of the paper, plus ablation and
// micro-benchmarks for the design choices called out in DESIGN.md. The
// figure benchmarks run a reduced sweep per iteration (the full sweeps are
// regenerated by cmd/experiments) and report the headline metric of the
// figure via b.ReportMetric so `go test -bench` output doubles as a
// compact results table.

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"pacds/internal/baseline"
	"pacds/internal/cds"
	"pacds/internal/distributed"
	"pacds/internal/energy"
	"pacds/internal/experiments"
	"pacds/internal/faults"
	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/obs"
	"pacds/internal/routing"
	"pacds/internal/server"
	"pacds/internal/sim"
	"pacds/internal/traffic"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// benchOpts is the reduced sweep used inside benchmark iterations.
func benchOpts() experiments.Options {
	return experiments.Options{Ns: []int{30, 60}, Trials: 5, Seed: 101}
}

// BenchmarkFigure10 regenerates the CDS-size experiment (paper Figure 10)
// and reports the mean gateway count of the ND policy at N=60.
func BenchmarkFigure10(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		fr, err := experiments.Figure10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fr.Series {
			if s.Label == "ND" {
				last = s.Points[len(s.Points)-1].Mean
			}
		}
	}
	b.ReportMetric(last, "ND-gateways@N=60")
}

func benchLifetime(b *testing.B, f func(experiments.Options) (*experiments.FigureResult, error), metric string) {
	b.Helper()
	opt := benchOpts()
	opt.PerGateway = true
	var el1 float64
	for i := 0; i < b.N; i++ {
		fr, err := f(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fr.Series {
			if s.Label == "EL1" {
				el1 = s.Points[len(s.Points)-1].Mean
			}
		}
	}
	b.ReportMetric(el1, metric)
}

// BenchmarkFigure11 regenerates the constant-drain lifetime experiment
// (paper Figure 11).
func BenchmarkFigure11(b *testing.B) {
	benchLifetime(b, experiments.Figure11, "EL1-lifetime@N=60")
}

// BenchmarkFigure12 regenerates the N-proportional-drain lifetime
// experiment (paper Figure 12).
func BenchmarkFigure12(b *testing.B) {
	benchLifetime(b, experiments.Figure12, "EL1-lifetime@N=60")
}

// BenchmarkFigure13 regenerates the pairs-proportional-drain lifetime
// experiment (paper Figure 13).
func BenchmarkFigure13(b *testing.B) {
	benchLifetime(b, experiments.Figure13, "EL1-lifetime@N=60")
}

// BenchmarkWorkedExample runs all five policies on the Section 3.3
// cluster topology — the paper's Figures 6-9 demonstration.
func BenchmarkWorkedExample(b *testing.B) {
	g := FromEdges(12, [][2]NodeID{
		{2, 1}, {2, 3}, {2, 4}, {2, 5}, {2, 6}, {2, 7}, {2, 8}, {2, 9},
		{4, 1}, {4, 3}, {4, 9}, {4, 10}, {4, 11},
		{9, 5}, {9, 6}, {9, 7}, {9, 8}, {9, 10},
		{11, 0},
	})
	el := make([]float64, 12)
	for i := range el {
		el[i] = 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range cds.Policies {
			if _, err := cds.Compute(g, p, el); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRoutingTables builds the gateway membership lists and routing
// tables of the paper's Figure 2 for a 100-host network.
func BenchmarkRoutingTables(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(1), 2000)
	if err != nil {
		b.Fatal(err)
	}
	res := cds.MustCompute(inst.Graph, cds.ND, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.New(inst.Graph, res.Gateway); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalizedUpdate measures the paper's Section 2.2 locality
// claim: marker maintenance after one host's movement versus remarking
// the whole network (see BenchmarkFullRemark in internal/cds).
func BenchmarkLocalizedUpdate(b *testing.B) {
	fr, err := experiments.Locality(experiments.Options{Ns: []int{60}, Trials: 5, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	dirty := fr.Series[0].Points[0].Mean
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(5), 2000)
	if err != nil {
		b.Fatal(err)
	}
	im := cds.NewIncrementalMarker(inst.Graph)
	im.Marked()
	rng := xrand.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NodeID(rng.Intn(100))
		v := NodeID(rng.Intn(100))
		if u == v {
			continue
		}
		if inst.Graph.HasEdge(u, v) {
			im.RemoveEdge(u, v)
		} else {
			im.AddEdge(u, v)
		}
		im.Marked()
	}
	b.ReportMetric(dirty, "dirty-hosts@N=60")
}

// BenchmarkBaselines compares the classical centralized CDS constructions
// against the marking process on one topology per iteration.
func BenchmarkBaselines(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(80), xrand.New(2), 2000)
	if err != nil {
		b.Fatal(err)
	}
	g := inst.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.GuhaKhuller(g)
		baseline.MISConnectedCDS(g)
		baseline.SpanningTreeCDS(g)
		baseline.GreedyDominatingSet(g)
	}
}

// BenchmarkRuleAblation runs the rule-contribution ablation (rule 1 only /
// rule 2 only / both) for the ND policy.
func BenchmarkRuleAblation(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(80), xrand.New(4), 2000)
	if err != nil {
		b.Fatal(err)
	}
	g := inst.Graph
	marked := cds.Mark(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cds.ApplyRule1Only(g, cds.ND, marked, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := cds.ApplyRule2Only(g, cds.ND, marked, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := cds.ApplyRules(g, cds.ND, marked, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedProtocol measures the message-passing execution of
// the full algorithm on a 100-host network.
func BenchmarkDistributedProtocol(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(6), 2000)
	if err != nil {
		b.Fatal(err)
	}
	el := make([]float64, 100)
	rng := xrand.New(7)
	for i := range el {
		el[i] = float64(rng.IntRange(1, 10)) * 10
	}
	var msgs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := distributed.Run(inst.Graph, cds.EL2, el)
		if err != nil {
			b.Fatal(err)
		}
		msgs = stats.Messages
	}
	b.ReportMetric(float64(msgs), "messages")
}

// BenchmarkDistributedRun measures the hardened fault-tolerant protocol
// on a 50-host network, on a reliable radio versus a 10%-loss radio. The
// gap between the two variants is the price of retransmission and healing
// traffic; the drop=0 variant quantifies the hardening layer's overhead
// relative to BenchmarkDistributedProtocol's idealized execution.
func BenchmarkDistributedRun(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(50), xrand.New(14), 2000)
	if err != nil {
		b.Fatal(err)
	}
	el := make([]float64, 50)
	rng := xrand.New(15)
	for i := range el {
		el[i] = float64(rng.IntRange(1, 10)) * 10
	}
	for _, tc := range []struct {
		name string
		drop float64
	}{{"drop=0", 0}, {"drop=0.1", 0.1}} {
		plan, err := faults.NewPlan(faults.Config{Seed: 13, Drop: tc.drop})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			var retrans int
			for i := 0; i < b.N; i++ {
				res, err := distributed.RunHardened(inst.Graph, cds.EL2, el,
					distributed.HardenedConfig{Faults: plan})
				if err != nil {
					b.Fatal(err)
				}
				retrans = res.Stats.Retransmissions
			}
			b.ReportMetric(float64(retrans), "retransmissions")
		})
	}
}

// BenchmarkMarking measures the centralized marking process alone.
func BenchmarkMarking(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(8), 2000)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]bool, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cds.MarkInto(inst.Graph, dst)
	}
}

// BenchmarkPolicies measures full CDS computation per policy at N=100.
func BenchmarkPolicies(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(9), 2000)
	if err != nil {
		b.Fatal(err)
	}
	el := make([]float64, 100)
	rng := xrand.New(10)
	for i := range el {
		el[i] = float64(rng.IntRange(1, 10)) * 10
	}
	for _, p := range cds.Policies {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cds.Compute(inst.Graph, p, el); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLifetimeRun measures one full lifetime simulation (the unit of
// Figures 11-13).
func BenchmarkLifetimeRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.PaperConfig(50, cds.EL1, energy.LinearPerGW{}, uint64(i+1))
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrafficExperiment runs the packet-level lifetime experiment
// (this repository's extension that grounds the paper's energy premise in
// actual forwarding work) and reports EL1's first-death interval.
func BenchmarkTrafficExperiment(b *testing.B) {
	var death float64
	for i := 0; i < b.N; i++ {
		m, err := traffic.Run(traffic.PaperConfig(30, cds.EL1, uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		death = float64(m.FirstDeathInterval)
	}
	b.ReportMetric(death, "EL1-first-death")
}

// BenchmarkRuleKExperiment compares Rule-k against Rules 1+2 on one
// topology per iteration and reports the rule-k CDS size.
func BenchmarkRuleKExperiment(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(80), xrand.New(12), 2000)
	if err != nil {
		b.Fatal(err)
	}
	marked := cds.Mark(inst.Graph)
	var size float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rk, err := cds.ApplyRuleK(inst.Graph, cds.ND, marked, nil)
		if err != nil {
			b.Fatal(err)
		}
		size = float64(cds.CountGateways(rk))
	}
	b.ReportMetric(size, "rulek-gateways@N=80")
}

// BenchmarkCanonicalDigest measures the canonical-encoding fingerprint
// that keys the cdsd result cache, on a 100-host unit-disk topology.
func BenchmarkCanonicalDigest(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(31), 2000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(inst.Graph.NumEdges()), "edges")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Digest(inst.Graph)
	}
}

// BenchmarkServerCompute measures one POST /v1/compute through the full
// serving stack (HTTP, JSON, worker pool) with the result cache cold
// (disabled, every request runs the pipeline) versus warm (every request
// after the first is a canonical-digest cache hit). The gap is the
// caching win on steady-state serving traffic. The traced variant reruns
// the cold path with request tracing on; its delta against cold is the
// span-recording overhead, while cold itself (tracing disabled, the
// nil-safe no-op path) is gated against the pre-tracing baseline by
// `make bench-server-check`.
func BenchmarkServerCompute(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(33), 2000)
	if err != nil {
		b.Fatal(err)
	}
	spec := server.GraphSpec{Nodes: inst.Graph.NumNodes()}
	inst.Graph.Edges(func(u, v graph.NodeID) {
		spec.Edges = append(spec.Edges, [2]int{int(u), int(v)})
	})
	el := make([]float64, 100)
	rng := xrand.New(34)
	for i := range el {
		el[i] = float64(rng.IntRange(1, 10)) * 10
	}
	req := server.ComputeRequest{Graph: spec, Policy: "EL2", Energy: el}

	run := func(b *testing.B, cfg server.Config) {
		srv := server.New(cfg)
		hs := httptest.NewServer(srv.Handler())
		defer func() {
			hs.Close()
			srv.Close()
		}()
		c := server.NewClient(hs.URL, hs.Client())
		ctx := context.Background()
		if _, err := c.Compute(ctx, req); err != nil { // prime / warm up
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Compute(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, server.Config{CacheSize: -1}) }) // cache disabled
	b.Run("warm", func(b *testing.B) { run(b, server.Config{}) })              // default cache
	b.Run("traced", func(b *testing.B) {
		run(b, server.Config{CacheSize: -1, Tracing: obs.TracerConfig{Capacity: 4096, Seed: 1}})
	})
}

// BenchmarkParallelTrials measures the worker-pool trial runner at the
// machine's GOMAXPROCS.
func BenchmarkParallelTrials(b *testing.B) {
	cfg := sim.PaperConfig(30, cds.ND, energy.LinearPerGW{}, 21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunTrialsParallel(cfg, 8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyRulesFixpoint measures the monotonicity-theorem fixpoint
// (one sequential pass, provably stable — see internal/cds/fixpoint.go)
// on the dense 100-host paper topology and on a sparse 300-host network,
// where the surviving gateway set is much larger. The full-rescan
// reference it replaced, which pays at least one confirming pass to
// discover the same stability empirically, is benchmarked on the same
// instances next to its oracle in internal/cds (the */rescan rows).
// Headline numbers land in BENCH_PR3.json and README.md.
func BenchmarkApplyRulesFixpoint(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  udg.Config
	}{
		{"paper-n100", udg.PaperConfig(100)},
		{"sparse-n300", udg.Config{N: 300, Field: geom.Square(300), Radius: 35}},
	} {
		inst, err := udg.RandomConnected(tc.cfg, xrand.New(11), 2000)
		if err != nil {
			b.Fatal(err)
		}
		marked := cds.Mark(inst.Graph)
		b.Run(tc.name+"/single-pass", func(b *testing.B) {
			b.ReportAllocs()
			var passes int
			for i := 0; i < b.N; i++ {
				_, p, err := cds.ApplyRulesFixpoint(inst.Graph, cds.ND, marked, nil)
				if err != nil {
					b.Fatal(err)
				}
				passes = p
			}
			b.ReportMetric(float64(passes), "passes")
		})
	}
}

// BenchmarkCoverageKernels measures the neighborhood-coverage checks
// behind Rules 1 and 2 — one full ApplyRules pass at N=100 — with the
// word-parallel bitset kernels enabled versus the sorted merge scans.
func BenchmarkCoverageKernels(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(13), 2000)
	if err != nil {
		b.Fatal(err)
	}
	withBits := inst.Graph // udg.Build enables the bitset view
	noBits := inst.Graph.Clone()
	noBits.DisableBitset()
	marked := cds.Mark(withBits)
	run := func(b *testing.B, g *graph.Graph) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cds.ApplyRules(g, cds.ND, marked, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bitset", func(b *testing.B) { run(b, withBits) })
	b.Run("merge-scan", func(b *testing.B) { run(b, noBits) })
}

// BenchmarkSweepWorkers measures the experiment engine's worker pool on
// the Figure 10 sweep: forced-serial versus the default GOMAXPROCS pool.
// Output is byte-identical either way (TestSerialParallelIdentical); on a
// single-core host the two coincide, on an M-core host the pool run is
// expected ~min(M, cells)x faster.
func BenchmarkSweepWorkers(b *testing.B) {
	run := func(b *testing.B, workers int) {
		opt := experiments.Options{Ns: []int{40}, Trials: 8, Seed: 101, Workers: workers}
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Figure10(opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("pool", func(b *testing.B) { run(b, 0) })
}

// computeBenchInstance samples a constant-density deployment for the
// large-N compute benchmarks: the paper's density (N=100 on a 100x100
// field, r=25, mean degree ~19.6) held fixed while N grows, so the
// per-node work is size-invariant and the ns/op curves isolate the
// scaling of the pipeline itself. Connectivity is irrelevant to the
// scratch pipeline, so plain (possibly disconnected) deployments keep
// the 100k-host setup cheap.
func computeBenchInstance(b *testing.B, n int) *udg.Instance {
	b.Helper()
	cfg := udg.Config{N: n, Field: geom.Square(10 * math.Sqrt(float64(n))), Radius: 25}
	inst, err := udg.Random(cfg, xrand.New(uint64(41+n)))
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// Matrix shared by the parallel-compute benchmarks. The 8-worker rows
// only show wall-clock wins on a host with that many cores; on fewer
// cores they bound the scheduling overhead of the parallel build and
// marking, since the output is identical at every setting.
var (
	computeBenchNs      = []int{1000, 10000, 100000}
	computeBenchWorkers = []int{1, 4, 8}
)

// BenchmarkComputeParallel measures the compute stage alone — marking +
// rule pruning via cds.ComputeParallel on a prebuilt graph — across the
// N x workers matrix. workers=1 takes the sequential kernels unchanged
// (the acceptance bar for "parallelism costs nothing when off"); higher
// settings fan out the marking pass, and the rule pass is the one
// sequential sweep at every setting. Headline numbers land in
// BENCH_PR10.json and README.md.
func BenchmarkComputeParallel(b *testing.B) {
	for _, n := range computeBenchNs {
		inst := computeBenchInstance(b, n)
		for _, w := range computeBenchWorkers {
			b.Run(fmt.Sprintf("N=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := cds.ComputeParallel(inst.Graph, cds.ND, nil, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkComputePipeline measures the end-to-end scratch pipeline —
// udg.BuildParallel from raw positions, then marking, then pruning into
// reused buffers — the full "positions in, gateway set out" path a
// 100k-host deployment pays per recomputation.
func BenchmarkComputePipeline(b *testing.B) {
	for _, n := range computeBenchNs {
		inst := computeBenchInstance(b, n)
		marked := make([]bool, n)
		gateway := make([]bool, n)
		for _, w := range computeBenchWorkers {
			b.Run(fmt.Sprintf("N=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g := udg.BuildParallel(inst.Positions, inst.Config.Field, inst.Config.Radius, w)
					cds.MarkParallelInto(g, marked, w)
					if err := cds.ApplyRulesParallelInto(g, cds.ND, marked, nil, w, gateway); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// toggleCycle precomputes an even-length cycle of link batches whose net
// effect is the identity: each odd batch reverts its predecessor, so the
// graph returns to the base topology after every pair and every toggle in
// every replayed cycle is a real state change, never a no-op. (A cycle
// derived from a one-way mobility walk degenerates on replay — once the
// graph absorbs the walk's endpoint, further laps no-op and a benchmark at
// large b.N measures empty batches.)
func toggleCycle(g *graph.Graph, numBatches, batchLinks int, seed uint64) [][]distributed.EdgeChange {
	n := g.NumNodes()
	rng := xrand.New(seed)
	batches := make([][]distributed.EdgeChange, 0, numBatches)
	for len(batches) < numBatches {
		fwd := make([]distributed.EdgeChange, 0, batchLinks)
		rev := make([]distributed.EdgeChange, 0, batchLinks)
		seen := map[[2]NodeID]bool{}
		for len(fwd) < batchLinks {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]NodeID{u, v}] {
				continue
			}
			seen[[2]NodeID{u, v}] = true
			up := !g.HasEdge(u, v)
			fwd = append(fwd, distributed.EdgeChange{A: u, B: v, Up: up})
			rev = append(rev, distributed.EdgeChange{A: u, B: v, Up: !up})
		}
		batches = append(batches, fwd, rev)
	}
	return batches
}

// mobilityCycle returns a closed loop of mobility batches on inst: in
// each of steps forward batches a share of the hosts take one paper
// mobility step and the link diff is the batch; the inverse batches
// follow in reverse order, so cycling the loop replays the same states.
// inst is left as it was.
func mobilityCycle(inst *udg.Instance, steps int, share float64, seed uint64) [][]distributed.EdgeChange {
	rng := xrand.New(seed)
	n := inst.Config.N
	pos := append([]geom.Point(nil), inst.Positions...)
	cur := inst.Graph
	model := mobility.NewPaper()
	var loop [][]distributed.EdgeChange
	for s := 0; s < steps; s++ {
		movers := rng.Perm(n)[:max(1, int(share*float64(n)))]
		moved := make([]geom.Point, len(movers))
		for i, v := range movers {
			moved[i] = pos[v]
		}
		model.Step(moved, inst.Config.Field, rng)
		for i, v := range movers {
			pos[v] = moved[i]
		}
		next := udg.Build(pos, inst.Config.Field, inst.Config.Radius)
		var batch []distributed.EdgeChange
		cur.Edges(func(u, v NodeID) {
			if !next.HasEdge(u, v) {
				batch = append(batch, distributed.EdgeChange{A: u, B: v})
			}
		})
		next.Edges(func(u, v NodeID) {
			if !cur.HasEdge(u, v) {
				batch = append(batch, distributed.EdgeChange{A: u, B: v, Up: true})
			}
		})
		loop = append(loop, batch)
		cur = next
	}
	for i := steps - 1; i >= 0; i-- {
		inv := make([]distributed.EdgeChange, len(loop[i]))
		for j, ch := range loop[i] {
			inv[j] = distributed.EdgeChange{A: ch.A, B: ch.B, Up: !ch.Up}
		}
		loop = append(loop, inv)
	}
	return loop
}

// BenchmarkSessionApplyChanges quantifies the headline claim of the
// streaming-session subsystem: maintaining a CDS across link churn with
// the paper's Section 2.2 localized updates — localized traffic AND a
// dirty-frontier rule phase that only re-evaluates the hosts around the
// change — is much cheaper than recomputing from scratch after every
// batch. Both variants see the identical precomputed stream of 8-link
// batches on a dense 300-host topology; "maintained" applies each batch
// to one long-lived session, "scratch" rebuilds a fresh session from the
// mutated graph. Headline numbers land in BENCH_PR8.json and README.md.
//
// Three more rows time a maintained session at the sizes perfbench's
// sessions workload runs: at paper density (r=25 on a 10√N-wide field)
// and N=3000, a 1% mobility batch under ND and an EL2 energy refresh
// that draws every level anew; and "dense", the 8-link toggle stream on
// N=300 hosts in an 80×80 field, whose mean degree is above 64.
func BenchmarkSessionApplyChanges(b *testing.B) {
	const (
		n          = 300
		batchLinks = 8
		numBatches = 64
	)
	inst, err := udg.RandomConnected(udg.PaperConfig(n), xrand.New(21), 2000)
	if err != nil {
		b.Fatal(err)
	}
	batches := toggleCycle(inst.Graph, numBatches, batchLinks, 22)

	b.Run("maintained", func(b *testing.B) {
		sess, err := distributed.NewSession(inst.Graph.Clone(), cds.ND, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.ApplyChanges(batches[i%numBatches]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		g := inst.Graph.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ch := range batches[i%numBatches] {
				if ch.Up {
					g.AddEdge(ch.A, ch.B)
				} else {
					g.RemoveEdge(ch.A, ch.B)
				}
			}
			if _, err := distributed.NewSession(g, cds.ND, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	paper3000 := func(b *testing.B) *udg.Instance {
		cfg := udg.Config{N: 3000, Field: geom.Square(10 * math.Sqrt(3000)), Radius: 25}
		inst, err := udg.Random(cfg, xrand.New(25))
		if err != nil {
			b.Fatal(err)
		}
		return inst
	}
	b.Run("N=3000/mobility", func(b *testing.B) {
		inst := paper3000(b)
		loop := mobilityCycle(inst, 8, 0.01, 26)
		sess, err := distributed.NewSession(inst.Graph, cds.ND, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.ApplyChanges(loop[i%len(loop)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("N=3000/energy-EL2", func(b *testing.B) {
		inst := paper3000(b)
		rng := xrand.New(27)
		var levels [2][]float64
		for k := range levels {
			levels[k] = make([]float64, inst.Config.N)
			for v := range levels[k] {
				levels[k][v] = float64(rng.IntRange(1, 100))
			}
		}
		sess, err := distributed.NewSession(inst.Graph, cds.EL2, levels[1])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sess.UpdateEnergy(levels[i%2]); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.ApplyChanges(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		inst, err := udg.Random(udg.Config{N: n, Field: geom.Square(80), Radius: 25}, xrand.New(28))
		if err != nil {
			b.Fatal(err)
		}
		dense := toggleCycle(inst.Graph, numBatches, batchLinks, 29)
		sess, err := distributed.NewSession(inst.Graph, cds.ND, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.ApplyChanges(dense[i%numBatches]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(inst.Graph.AverageDegree(), "mean-degree")
	})
}

// BenchmarkSessionApplyChangesScaling pins the scaling property behind the
// incremental rule phase: on a large sparse network, the cost of a delta
// batch tracks the dirty frontier (the 2-hop neighborhood of the changed
// links), not the host population. 1000 hosts at radius 30 on a 400x400
// field give short adjacency lists, so doubling the batch roughly doubles
// the work while N stays out of the per-batch cost entirely. The reported
// "frontier" metric is the mean number of rule slots re-evaluated per
// batch.
func BenchmarkSessionApplyChangesScaling(b *testing.B) {
	const (
		n          = 1000
		numBatches = 64
	)
	cfg := udg.Config{N: n, Field: geom.Square(400), Radius: 30}
	inst, err := udg.RandomConnected(cfg, xrand.New(23), 2000)
	if err != nil {
		b.Fatal(err)
	}
	for _, batchLinks := range []int{1, 4, 16, 64} {
		batches := toggleCycle(inst.Graph, numBatches, batchLinks, 24)
		b.Run(fmt.Sprintf("links=%d", batchLinks), func(b *testing.B) {
			sess, err := distributed.NewSession(inst.Graph.Clone(), cds.ND, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var frontier int
			for i := 0; i < b.N; i++ {
				if _, err := sess.ApplyChanges(batches[i%numBatches]); err != nil {
					b.Fatal(err)
				}
				frontier += sess.LastFrontier()
			}
			b.ReportMetric(float64(frontier)/float64(b.N), "frontier")
		})
	}
}
