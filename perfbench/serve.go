package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"pacds/internal/cds"
	"pacds/internal/graph"
	"pacds/internal/server"
	"pacds/internal/xrand"
)

// serve: a closed loop of two callers against cdsd. About 8 in 9 requests
// are POST /v1/compute, the rest POST /v1/verify. A third of the computes
// repeat one of the caller's cached requests, which set-up sent once, so
// they hit the 1024-entry result cache; the others cycle through a pool
// of distinct topologies larger than the cache, so they always miss.

const (
	saltServe      = 0x5e27e0000000001
	saltServeTrace = 0x5e27e0000000002
	serveCallers   = 2
	serveSeqLen    = 200000 // ops per caller; a run never reaches the end
)

type serveReq struct {
	verify bool
	body   []byte
	wantGW []int                 // compute: the oracle's gateways
	wantV  server.VerifyResponse // verify: the oracle's verdict
}

type serveCaller struct {
	reqs []serveReq
	warm []int32 // the cached computes, sent once in set-up
	seq  []int32 // op i sends reqs[seq[i]]
	hit  []bool  // op i is a compute the cache must answer
}

type serveInputs struct {
	callers [serveCallers]*serveCaller
	prefix  int
	dig     uint64
}

func (in *serveInputs) digest() uint64 { return in.dig }

func genServe(seed uint64, sz sizing) (inputs, error) {
	in := &serveInputs{prefix: sz.servePrefix}
	dg := newDigester()
	errs := make([]error, serveCallers)
	done := make(chan int, serveCallers)
	for c := range in.callers {
		go func() {
			in.callers[c], errs[c] = genServeCaller(xrand.New(mix(seed, saltServe, uint64(c))), sz)
			done <- c
		}()
	}
	for range in.callers {
		<-done
	}
	for c, sc := range in.callers {
		if errs[c] != nil {
			return nil, errs[c]
		}
		for _, r := range sc.reqs {
			dg.bytes(r.body)
		}
		for _, i := range sc.seq {
			dg.int(int(i))
		}
	}
	in.dig = dg.sum()
	return in, nil
}

var servePolicies = []cds.Policy{cds.ID, cds.ND, cds.EL1, cds.EL2}

func genServeCaller(rng *xrand.RNG, sz sizing) (*serveCaller, error) {
	sc := &serveCaller{}
	compute := func(n int) (serveReq, error) {
		_, g := deploy(rng, n)
		p := servePolicies[rng.Intn(len(servePolicies))]
		var energy []float64
		if p.NeedsEnergy() {
			energy = intEnergies(rng, n)
		}
		res, err := cds.Compute(g, p, energy)
		if err != nil {
			return serveReq{}, err
		}
		body, err := json.Marshal(server.ComputeRequest{Graph: wireGraph(g), Policy: p.String(), Energy: energy})
		return serveReq{body: body, wantGW: gatewayIDs(res.Gateway)}, err
	}
	verify := func(n int) (serveReq, error) {
		_, g := deploy(rng, n)
		res, err := cds.Compute(g, cds.ND, nil)
		if err != nil {
			return serveReq{}, err
		}
		gw := slices.Clone(res.Gateway)
		// A third of the verifies drop one gateway, which usually breaks
		// the set, so both verdicts occur.
		if ids := gatewayIDs(gw); len(ids) > 0 && rng.Intn(3) == 0 {
			gw[ids[rng.Intn(len(ids))]] = false
		}
		rep, err := cds.Analyze(g, gw)
		if err != nil {
			return serveReq{}, err
		}
		want := server.VerifyResponse{
			Valid:              rep.Valid == nil,
			NumGateways:        rep.Gateways,
			BackboneDiameter:   rep.BackboneDiameter,
			ArticulationPoints: rep.ArticulationPoints,
			MeanRedundancy:     rep.MeanRedundancy,
		}
		if rep.Valid != nil {
			want.Reason = rep.Valid.Error()
		}
		body, err := json.Marshal(server.VerifyRequest{Graph: wireGraph(g), Gateways: gatewayIDs(gw)})
		return serveReq{verify: true, body: body, wantV: want}, err
	}
	// A pool of count requests takes the midpoints of count log-N strata
	// of [serveMinN, serveMaxN], in a seeded order. With seeded sizes the
	// small cached pool, a third of the ops, would be larger for some
	// seeds than for others.
	pool := func(count int, mk func(n int) (serveReq, error)) ([]int32, error) {
		var idx []int32
		for _, k := range rng.Perm(count) {
			r, err := mk(logStratum(k, count, sz.serveMinN, sz.serveMaxN))
			if err != nil {
				return nil, err
			}
			idx = append(idx, int32(len(sc.reqs)))
			sc.reqs = append(sc.reqs, r)
		}
		return idx, nil
	}
	cached, err := pool(sz.serveCached, compute)
	if err != nil {
		return nil, err
	}
	fresh, err := pool(sz.serveFresh, compute)
	if err != nil {
		return nil, err
	}
	verifies, err := pool(sz.serveVerify, verify)
	if err != nil {
		return nil, err
	}
	sc.warm = cached
	// Each pool is visited round-robin. A cached entry comes round again
	// after at most ~600 distinct keys from both callers, well inside the
	// 1024-entry LRU; a fresh entry only after the caller's whole fresh
	// pool, which is larger than the cache, so it has been evicted.
	var ci, fi, vi int
	sc.seq = make([]int32, serveSeqLen)
	sc.hit = make([]bool, serveSeqLen)
	for i := range sc.seq {
		switch {
		case rng.Intn(9) == 0:
			sc.seq[i] = verifies[vi%len(verifies)]
			vi++
		case rng.Intn(3) == 0:
			sc.seq[i] = cached[ci%len(cached)]
			sc.hit[i] = true
			ci++
		default:
			sc.seq[i] = fresh[fi%len(fresh)]
			fi++
		}
	}
	return sc, nil
}

func wireGraph(g *graph.Graph) server.GraphSpec {
	spec := server.GraphSpec{Nodes: g.NumNodes(), Edges: make([][2]int, 0, g.NumEdges())}
	g.Edges(func(u, v graph.NodeID) { spec.Edges = append(spec.Edges, [2]int{int(u), int(v)}) })
	return spec
}

func gatewayIDs(gw []bool) []int {
	ids := []int{}
	for v, in := range gw {
		if in {
			ids = append(ids, v)
		}
	}
	return ids
}

func (r *serveReq) path() string {
	if r.verify {
		return "/v1/verify"
	}
	return "/v1/compute"
}

// check compares one reply with the oracle.
func (r *serveReq) check(reply []byte, wantHit bool) error {
	if r.verify {
		var got server.VerifyResponse
		if err := json.Unmarshal(reply, &got); err != nil {
			return err
		}
		if got != r.wantV {
			return fmt.Errorf("verify: got %+v, want %+v", got, r.wantV)
		}
		return nil
	}
	var got server.ComputeResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return err
	}
	if got.NumGateways != len(r.wantGW) || !slices.Equal(got.Gateways, r.wantGW) {
		return fmt.Errorf("compute: got %d gateways, want %d (or a different set)", got.NumGateways, len(r.wantGW))
	}
	if got.Cached != wantHit {
		return fmt.Errorf("compute: cached=%v, want %v", got.Cached, wantHit)
	}
	return nil
}

// serveSession is one cdsd child with its cache warmed.
type serveSession struct {
	d        *daemon
	setupS   float64
	problems []string
}

// start execs cdsd and sends every cached request once.
func (in *serveInputs) start(e *env, traceCap int) (*serveSession, error) {
	defer quietClient()()
	t0 := time.Now()
	d, err := startDaemon(e.cdsd, traceCap)
	if err != nil {
		return nil, err
	}
	s := &serveSession{d: d}
	var probs [serveCallers][]string
	pass(serveCallers, 0, func(c int, _ time.Time) {
		var buf bytes.Buffer
		sc := in.callers[c]
		for _, i := range sc.warm {
			r := &sc.reqs[i]
			status, err := d.call(http.MethodPost, r.path(), r.body, 0, &buf)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
			}
			if err == nil {
				err = r.check(buf.Bytes(), false)
			}
			if err != nil {
				probs[c] = append(probs[c], fmt.Sprintf("serve set-up caller %d: %v", c, err))
			}
		}
	})
	s.setupS = time.Since(t0).Seconds()
	for _, p := range probs {
		s.problems = append(s.problems, p...)
	}
	return s, nil
}

// servePass is one timed phase's client-side record.
type servePass struct {
	logs     [serveCallers]*opLog
	wall     time.Duration
	spans    [serveCallers]*tracer // traced passes only
	attempts int
	failed   int
	hits     [serveCallers][]bool // per op: reply said cached
	problems []string
}

// run drives the timed phase. traced pins an X-Trace-Id on every op and
// records a client span around it.
func (in *serveInputs) run(e *env, d *daemon, dur time.Duration, traced bool) *servePass {
	sp := &servePass{}
	restore := quietClient()
	epoch := time.Now()
	sp.wall = pass(serveCallers, dur, func(c int, deadline time.Time) {
		sc := in.callers[c]
		log := newOpLog(1 << 14)
		var tr *tracer
		if traced {
			tr = newTracer(epoch, 1<<14)
		}
		var buf bytes.Buffer
		for i := 0; i < len(sc.seq) && time.Now().Before(deadline); i++ {
			r := &sc.reqs[sc.seq[i]]
			var id uint64
			var root int32
			if traced {
				id = serveTraceID(e.seed, c, i)
				root = tr.begin("client", int32(i), -1)
			}
			t0 := time.Now()
			status, err := d.call(http.MethodPost, r.path(), r.body, id, &buf)
			lat := time.Since(t0)
			if traced {
				tr.finish(root)
			}
			log.record(float64(lat)/1e6, status, err, buf.Bytes())
		}
		sp.logs[c] = log
		sp.spans[c] = tr
	})
	restore()
	// Check every reply against the oracle now that the clock is stopped.
	for c, log := range sp.logs {
		sc := in.callers[c]
		sp.hits[c] = make([]bool, len(log.latMS))
		for i := range log.latMS {
			sp.attempts++
			r := &sc.reqs[sc.seq[i]]
			err := log.errs[i]
			if err == nil && !log.ok(i) {
				err = fmt.Errorf("status %d: %s", log.status[i], bytes.TrimSpace(log.reply(i)))
			}
			if err == nil {
				err = r.check(log.reply(i), sc.hit[i])
			}
			if err != nil {
				sp.failed++
				log.latMS[i] = inf
				if len(sp.problems) < 5 {
					sp.problems = append(sp.problems, fmt.Sprintf("serve caller %d op %d: %v", c, i, err))
				}
				continue
			}
			sp.hits[c][i] = sc.hit[i]
		}
	}
	return sp
}

func serveTraceID(seed uint64, c, i int) uint64 {
	return traceID(mix(seed, saltServeTrace, uint64(c), uint64(i)))
}

func (in *serveInputs) measure(e *env, dur time.Duration, setups int) (*e2eRun, error) {
	r := &e2eRun{}
	var s *serveSession
	for k := 0; k < setups; k++ {
		if s != nil {
			s.d.stop()
		}
		var err error
		if s, err = in.start(e, 0); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, s.setupS)
		r.problems = append(r.problems, s.problems...)
	}
	defer s.d.stop()
	cpu0, _, err := s.d.usage()
	if err != nil {
		return nil, err
	}
	sp := in.run(e, s.d, dur, false)
	cpu1, hwm, err := s.d.usage()
	if err != nil {
		return nil, err
	}
	for _, log := range sp.logs {
		r.lat = append(r.lat, log.latMS...)
	}
	r.attempted, r.failed, r.wall = sp.attempts, sp.failed, sp.wall
	r.cpu, r.hwmKB = cpu1-cpu0, hwm
	r.problems = append(r.problems, sp.problems...)
	return r, nil
}

// traceRing holds every trace of a traced pass.
const traceRing = 1 << 19

func (in *serveInputs) layers(e *env, dur time.Duration) (*layerRun, error) {
	lr := newLayerRun()

	// Untraced pass: the throughput the tracing overhead is measured
	// against, and the first copy of the counts.
	s, err := in.start(e, 0)
	if err != nil {
		return nil, err
	}
	plain := in.run(e, s.d, dur, false)
	s.d.stop()
	lr.problems = append(lr.problems, s.problems...)

	s, err = in.start(e, traceRing)
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	lr.problems = append(lr.problems, s.problems...)
	hits0, err1 := s.d.counter("cdsd_cache_hits_total")
	comp0, err2 := s.d.counter(`cdsd_requests_total{endpoint="compute"}`)
	traced := in.run(e, s.d, dur, true)
	hits1, err3 := s.d.counter("cdsd_cache_hits_total")
	comp1, err4 := s.d.counter(`cdsd_requests_total{endpoint="compute"}`)
	if err := firstErr(err1, err2, err3, err4); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	rings, err := s.d.traces()
	if err != nil {
		return nil, err
	}

	for _, p := range []*servePass{plain, traced} {
		lr.attempted += p.attempts
		lr.failed += p.failed
		lr.problems = append(lr.problems, p.problems...)
	}
	ok := func(p *servePass) float64 { return float64(p.attempts-p.failed) / p.wall.Seconds() }

	// Join cdsd's traces to the client spans.
	all := newTracer(time.Time{}, 0)
	var j joinStats
	for c, tr := range traced.spans {
		j.join(tr, rings, func(op int32) uint64 { return serveTraceID(e.seed, c, int(op)) })
		all.merge(tr)
	}
	if err := all.write(e.spans, fmt.Sprintf("serve-seed%d.csv", e.seed)); err != nil {
		return nil, err
	}

	// Replay the layers cdsd runs before its first span, and the compute
	// kernels, on each caller's first in.prefix ops.
	var decode, build, digest, mark, rules, analyze []float64
	observedHits := [2]int{}
	for c, sc := range in.callers {
		for k, p := range []*servePass{plain, traced} {
			if len(p.logs[c].latMS) < in.prefix {
				lr.problemf("serve: caller %d sent %d ops, fewer than the %d the counts cover", c, len(p.logs[c].latMS), in.prefix)
				continue
			}
			for i := 0; i < in.prefix; i++ {
				if p.hits[c][i] {
					observedHits[k]++
				}
			}
		}
		for i := 0; i < in.prefix; i++ {
			r := &sc.reqs[sc.seq[i]]
			replayServe(r, sc.hit[i], &decode, &build, &digest, &mark, &rules, &analyze)
		}
	}
	if observedHits[0] != observedHits[1] {
		lr.problemf("serve: cache hits over the first %d ops differ between passes: %d vs %d", in.prefix, observedHits[0], observedHits[1])
	}
	lr.putP50("server.decode_us", decode)
	lr.putP50("graph.build_us", build)
	lr.putP50("graph.digest_us", digest)
	lr.putBinnedP50("server.cache_lookup_us", j.stage["cache-lookup"])
	if comp1 > comp0 {
		lr.put("server.cache_hit_ratio", (hits1-hits0)/(comp1-comp0), "ratio")
	}
	clientHits := 0
	for _, h := range traced.hits {
		for _, x := range h {
			if x {
				clientHits++
			}
		}
	}
	if int(hits1-hits0) != clientHits {
		lr.problemf("serve: /metrics counted %v cache hits, replies said %d", hits1-hits0, clientHits)
	}
	lr.put("server.cache_hits", float64(observedHits[1]), "count")
	lr.putBinnedP50("server.queue_wait_us", j.stage["queue-wait"])
	lr.putBinnedP50("server.worker_us", append(j.stage["compute"], j.stage["verify"]...))
	lr.putP50("cds.mark_us", mark)
	lr.putP50("cds.rules_us", rules)
	lr.putP50("cds.analyze_us", analyze)
	lr.putBinnedP50("server.encode_us", j.stage["encode"])
	lr.putBinnedP50("server.root_us", j.root)
	lr.putBinnedP50("server.unattributed_us", j.unattributed)
	lr.putP50("server.transport_us", j.transport)
	j.report(lr, "serve", traced.attempts)
	lr.overhead(ok(plain), ok(traced))
	return lr, nil
}

// replayServe times, in-process, the calls cdsd makes for one request:
// the JSON decode into the wire types, graph.FromEdgeFunc as
// GraphSpec.build calls it, the cache-key digest, and the kernels a miss
// or a verify runs at one worker.
func replayServe(r *serveReq, hit bool, decode, build, digest, mark, rules, analyze *[]float64) {
	t := time.Now()
	lap := func(into *[]float64) {
		now := time.Now()
		*into = append(*into, float64(now.Sub(t))/1e3)
		t = now
	}
	var spec server.GraphSpec
	var policy cds.Policy
	var energy []float64
	var gwIDs []int
	if r.verify {
		var req server.VerifyRequest
		mustDecode(r.body, &req)
		spec, gwIDs = req.Graph, req.Gateways
	} else {
		var req server.ComputeRequest
		mustDecode(r.body, &req)
		spec, energy = req.Graph, req.Energy
		policy, _ = cds.ByName(req.Policy)
	}
	lap(decode)
	g := graph.FromEdgeFunc(spec.Nodes, func(emit func(u, v graph.NodeID)) {
		for _, e := range spec.Edges {
			emit(graph.NodeID(e[0]), graph.NodeID(e[1]))
		}
	})
	lap(build)
	n := g.NumNodes()
	if r.verify {
		gw := make([]bool, n)
		for _, v := range gwIDs {
			gw[v] = true
		}
		t = time.Now()
		cds.Analyze(g, gw)
		lap(analyze)
		return
	}
	graph.Digest(g)
	lap(digest)
	if hit {
		return
	}
	marked, gw := make([]bool, n), make([]bool, n)
	t = time.Now()
	cds.MarkParallelInto(g, marked, 1)
	lap(mark)
	cds.ApplyRulesParallelInto(g, policy, marked, energy, 1, gw)
	lap(rules)
}
