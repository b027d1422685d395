package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"pacds/internal/cds"
	"pacds/internal/distributed"
	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/server"
	"pacds/internal/xrand"
)

// sessions: a closed loop of two callers, each owning half of the
// sessions and visiting them round-robin, so every session's history is
// fixed by the seed. An op is a delta batch (1% of the hosts take one
// paper mobility step and the link diff is sent; EL1/EL2 sessions also
// refresh every energy on every 8th batch) or, about one op in eight, a
// GET ?since= read.

const (
	saltSess        = 0x5e5510000000001
	saltSessTrace   = 0x5e5510000000002
	sessCallers     = 2
	sessMoveShare   = 0.01
	sessReadEvery   = 8    // one op in this many is a read
	sessEnergyEvery = 8    // EL sessions refresh energies on every 8th batch
	sessMaxGap      = 40   // batches between reads, inside cdsd's 64-batch history
	sessMaxChanges  = 4096 // cdsd's default -session-max-changes
)

var sessPolicies = []cds.Policy{cds.ID, cds.ND, cds.EL1, cds.EL2}

type sessOp struct {
	read    bool
	since   uint64 // read: the epoch of the session's previous read
	body    []byte // batch: the wire body
	changes []distributed.EdgeChange
	energy  []float64 // batch: the energy refresh, or nil
}

type sessPlan struct {
	owner      int
	n          int
	policy     cds.Policy
	g0         *graph.Graph
	energy0    []float64
	createBody []byte
	ops        []sessOp
}

type sessInputs struct {
	plans    []*sessPlan
	prefix   int
	rssRound int
	dig      uint64
}

func (in *sessInputs) digest() uint64 { return in.dig }

func genSessions(seed uint64, sz sizing) (inputs, error) {
	in := &sessInputs{plans: make([]*sessPlan, sz.sessions), prefix: sz.sessPrefix, rssRound: sz.sessRSSRound}
	var wg sync.WaitGroup
	errs := make([]error, sz.sessions)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < sz.sessions; j += 2 {
				in.plans[j], errs[j] = genSession(seed, sz, j)
			}
		}()
	}
	wg.Wait()
	dg := newDigester()
	for j, p := range in.plans {
		if errs[j] != nil {
			return nil, errs[j]
		}
		dg.bytes(p.createBody)
		for _, op := range p.ops {
			dg.int(int(op.since))
			dg.bytes(op.body)
		}
	}
	in.dig = dg.sum()
	return in, nil
}

// genSession builds session j's initial deployment and history. Session j
// has the j-th of sz.sessions log-N strata of [sessMinN, sessMaxN]; the
// slowest ops are the energy refreshes of the largest EL sessions, so
// their sizes must not move with the seed. Consecutive pairs share a
// policy and split across callers.
func genSession(seed uint64, sz sizing, j int) (*sessPlan, error) {
	rng := xrand.New(mix(seed, saltSess, uint64(j)))
	n := logStratum(j, sz.sessions, sz.sessMinN, sz.sessMaxN)
	p := &sessPlan{owner: j % sessCallers, n: n, policy: sessPolicies[(j/2)%len(sessPolicies)]}
	pos, g := deploy(rng, n)
	p.g0 = g
	if p.policy.NeedsEnergy() {
		p.energy0 = intEnergies(rng, n)
	}
	var err error
	p.createBody, err = json.Marshal(server.SessionCreateRequest{Graph: wireGraph(g), Policy: p.policy.String(), Energy: p.energy0})
	if err != nil {
		return nil, err
	}

	cur := g.Clone()
	field := paperField(n)
	step := mobility.NewPaper()
	movers := max(1, int(math.Round(sessMoveShare*float64(n))))
	isMover := make([]bool, n)
	seen := make([]int, n) // seen[u] == stamp: u is a new neighbour of the current mover
	stamp := 0
	var nbrs []int
	moved := make([]geom.Point, movers)
	ids := make([]int, movers)
	var epoch, lastRead uint64
	batches, gap := 0, 0
	for len(p.ops) < sz.sessOps {
		if gap >= sessMaxGap || rng.Intn(sessReadEvery) == 0 {
			p.ops = append(p.ops, sessOp{read: true, since: lastRead})
			lastRead, gap = epoch, 0
			continue
		}
		for i := range ids {
			v := rng.Intn(n)
			for isMover[v] {
				v = rng.Intn(n)
			}
			isMover[v] = true
			ids[i] = v
			moved[i] = pos[v]
		}
		step.Step(moved, field, rng)
		var op sessOp
		for i, v := range ids {
			pos[v] = moved[i]
		}
		grid := geom.NewGrid(pos, field, radius)
		for _, v := range ids {
			// A pair of two movers is handled once, from its lower end.
			skip := func(u int) bool { return isMover[u] && u < v }
			stamp++
			nbrs = grid.Neighbors(v, nbrs[:0])
			for _, u := range nbrs {
				seen[u] = stamp
				if !skip(u) && !cur.HasEdge(graph.NodeID(v), graph.NodeID(u)) {
					op.changes = append(op.changes, distributed.EdgeChange{A: graph.NodeID(v), B: graph.NodeID(u), Up: true})
				}
			}
			for _, u := range cur.Neighbors(graph.NodeID(v)) {
				if seen[u] != stamp && !skip(int(u)) {
					op.changes = append(op.changes, distributed.EdgeChange{A: graph.NodeID(v), B: u, Up: false})
				}
			}
		}
		for _, v := range ids {
			isMover[v] = false
		}
		if len(op.changes) > sessMaxChanges {
			return nil, fmt.Errorf("session %d: a batch of %d changes exceeds cdsd's cap of %d", j, len(op.changes), sessMaxChanges)
		}
		wire := make([]server.SessionEdgeChange, len(op.changes))
		for i, ch := range op.changes {
			if ch.Up {
				cur.AddEdge(ch.A, ch.B)
			} else {
				cur.RemoveEdge(ch.A, ch.B)
			}
			wire[i] = server.SessionEdgeChange{A: int(ch.A), B: int(ch.B), Up: ch.Up}
		}
		epoch++
		if p.policy.NeedsEnergy() && batches%sessEnergyEvery == sessEnergyEvery-1 {
			op.energy = intEnergies(rng, n)
			epoch++
		}
		if op.body, err = json.Marshal(server.SessionChangesRequest{Changes: wire, Energy: op.energy}); err != nil {
			return nil, err
		}
		p.ops = append(p.ops, op)
		batches++
		gap++
	}
	return p, nil
}

// sessRun is one cdsd child with every session created.
type sessRun struct {
	d       *daemon
	setupS  float64
	ids     []string
	creates [][]byte // create replies, checked by the replay
	errs    []error
}

func (in *sessInputs) start(e *env, traceCap int) (*sessRun, error) {
	defer quietClient()()
	t0 := time.Now()
	d, err := startDaemon(e.cdsd, traceCap)
	if err != nil {
		return nil, err
	}
	r := &sessRun{d: d, ids: make([]string, len(in.plans)), creates: make([][]byte, len(in.plans)), errs: make([]error, len(in.plans))}
	pass(sessCallers, 0, func(c int, _ time.Time) {
		var buf bytes.Buffer
		for j, p := range in.plans {
			if p.owner != c {
				continue
			}
			status, err := d.call(http.MethodPost, "/v1/sessions", p.createBody, 0, &buf)
			if err == nil && status != http.StatusCreated {
				err = fmt.Errorf("create: status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
			}
			var resp server.SessionResponse
			if err == nil {
				err = json.Unmarshal(buf.Bytes(), &resp)
			}
			r.ids[j], r.creates[j], r.errs[j] = resp.ID, slices.Clone(buf.Bytes()), err
		}
	})
	r.setupS = time.Since(t0).Seconds()
	return r, nil
}

// sessPass is one timed phase: per session, the log of the ops it ran.
type sessPass struct {
	logs  []*opLog
	wall  time.Duration
	spans [sessCallers]*tracer
	opOf  [sessCallers][][2]int32 // traced passes: client span op -> {session, index in its history}
	// cdsd's VmHWM as each caller started round in.rssRound over its
	// sessions. cdsd's resident set grows with the batches it has applied,
	// so a reading at the end of the timed phase would follow throughput;
	// this one covers the same work in every run.
	hwmKB    [sessCallers]int64
	hwmErr   [sessCallers]error
	problems []string
}

func (in *sessInputs) run(e *env, r *sessRun, dur time.Duration, traced bool) *sessPass {
	sp := &sessPass{logs: make([]*opLog, len(in.plans))}
	for j := range sp.logs {
		sp.logs[j] = newOpLog(1 << 10)
	}
	exhausted := make([]bool, sessCallers)
	restore := quietClient()
	epoch := time.Now()
	sp.wall = pass(sessCallers, dur, func(c int, deadline time.Time) {
		var mine []int
		for j, p := range in.plans {
			if p.owner == c && r.errs[j] == nil {
				mine = append(mine, j)
			}
		}
		var tr *tracer
		if traced {
			tr = newTracer(epoch, 1<<14)
		}
		dead := make([]bool, len(in.plans))
		var buf bytes.Buffer
		live := len(mine)
		for k := 0; live > 0 && time.Now().Before(deadline); k++ {
			if k == in.rssRound*len(mine) {
				sp.hwmKB[c], sp.hwmErr[c] = procHWM(r.d.pid())
			}
			j := mine[k%len(mine)]
			log := sp.logs[j]
			i := len(log.latMS)
			if dead[j] {
				continue
			}
			if i == len(in.plans[j].ops) {
				exhausted[c] = true
				break
			}
			op := &in.plans[j].ops[i]
			var id uint64
			var root int32
			if traced {
				id = sessTraceID(e.seed, j, i)
				root = tr.begin("client", int32(len(sp.opOf[c])), -1)
				sp.opOf[c] = append(sp.opOf[c], [2]int32{int32(j), int32(i)})
			}
			t0 := time.Now()
			var status int
			var err error
			if op.read {
				status, err = r.d.call(http.MethodGet, "/v1/sessions/"+r.ids[j]+"?since="+strconv.FormatUint(op.since, 10), nil, id, &buf)
			} else {
				status, err = r.d.call(http.MethodPost, "/v1/sessions/"+r.ids[j]+"/changes", op.body, id, &buf)
			}
			lat := time.Since(t0)
			if traced {
				tr.finish(root)
			}
			log.record(float64(lat)/1e6, status, err, buf.Bytes())
			if !log.ok(i) {
				// The session's state is now unknown: stop driving it.
				dead[j] = true
				live--
			}
		}
		sp.spans[c] = tr
	})
	restore()
	for c, x := range exhausted {
		if x {
			sp.problems = append(sp.problems, fmt.Sprintf("sessions: caller %d ran out of pre-generated ops", c))
		}
	}
	return sp
}

func sessTraceID(seed uint64, j, i int) uint64 {
	return traceID(mix(seed, saltSessTrace, uint64(j), uint64(i)))
}

// sessReplay is what replaying every session's history in-process gives.
type sessReplay struct {
	attempted, failed int
	problems          []string
	createUS, applyUS []float64
	decodeUS          []float64
	// Over each session's first in.prefix ops:
	prefixBatches             int
	frontier, flips, messages int
	frontierShare             float64
	prefixShort               bool
}

// replay feeds each session's history to an in-process
// distributed.Session and checks every reply of every pass against it:
// epochs and gateway sets must be equal, since server and oracle saw the
// same history. Failed ops become +Inf latencies.
func (in *sessInputs) replay(runs []*sessRun, passes []*sessPass) *sessReplay {
	out := make([]*sessReplay, len(in.plans))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < len(in.plans); j += 2 {
				out[j] = in.replayOne(j, runs, passes)
			}
		}()
	}
	wg.Wait()
	total := &sessReplay{}
	for _, r := range out {
		total.attempted += r.attempted
		total.failed += r.failed
		if len(total.problems) < 5 {
			total.problems = append(total.problems, r.problems...)
		}
		total.createUS = append(total.createUS, r.createUS...)
		total.applyUS = append(total.applyUS, r.applyUS...)
		total.decodeUS = append(total.decodeUS, r.decodeUS...)
		total.prefixBatches += r.prefixBatches
		total.frontier += r.frontier
		total.flips += r.flips
		total.messages += r.messages
		total.frontierShare += r.frontierShare
		total.prefixShort = total.prefixShort || r.prefixShort
	}
	return total
}

func (in *sessInputs) replayOne(j int, runs []*sessRun, passes []*sessPass) *sessReplay {
	p := in.plans[j]
	rep := &sessReplay{}
	fail := func(format string, args ...any) {
		if len(rep.problems) < 2 {
			rep.problems = append(rep.problems, fmt.Sprintf("session %d: ", j)+fmt.Sprintf(format, args...))
		}
	}
	t0 := time.Now()
	s, err := distributed.NewSession(p.g0, p.policy, p.energy0)
	rep.createUS = append(rep.createUS, float64(time.Since(t0))/1e3)
	if err != nil {
		fail("oracle bootstrap: %v", err)
		return rep
	}
	var gw []bool
	gw = s.GatewaysInto(gw)
	want := gatewayIDs(gw)
	for k, r := range runs {
		if r.errs[j] != nil {
			fail("set-up %d: %v", k, r.errs[j])
			continue
		}
		if err := checkSnapshot(r.creates[j], 0, want, -1, -1); err != nil {
			fail("set-up %d create: %v", k, err)
		}
	}
	ran := 0
	for _, ps := range passes {
		ran = max(ran, len(ps.logs[j].latMS))
	}
	if ran < in.prefix {
		rep.prefixShort = true
	}
	lastRead := slices.Clone(want)
	for i := 0; i < ran; i++ {
		op := &p.ops[i]
		markers, frontier := -1, -1
		if !op.read {
			before := s.Stats()
			if i < in.prefix {
				t := time.Now()
				var req server.SessionChangesRequest
				mustDecode(op.body, &req)
				rep.decodeUS = append(rep.decodeUS, float64(time.Since(t))/1e3)
			}
			t := time.Now()
			if op.energy != nil {
				if err := s.UpdateEnergy(op.energy); err != nil {
					fail("oracle op %d: %v", i, err)
					return rep
				}
			}
			mc, err := s.ApplyChanges(op.changes)
			rep.applyUS = append(rep.applyUS, float64(time.Since(t))/1e3)
			if err != nil {
				fail("oracle op %d: %v", i, err)
				return rep
			}
			markers, frontier = mc, s.LastFrontier()
			if i < in.prefix {
				after := s.Stats()
				rep.prefixBatches++
				rep.frontier += frontier
				rep.frontierShare += float64(frontier) / float64(p.n)
				rep.flips += after.StatusChanges - before.StatusChanges
				rep.messages += after.Messages - before.Messages
			}
		}
		gw = s.GatewaysInto(gw)
		now := gatewayIDs(gw)
		for k, ps := range passes {
			log := ps.logs[j]
			if i >= len(log.latMS) {
				continue
			}
			rep.attempted++
			err := log.errs[i]
			if err == nil && !log.ok(i) {
				err = fmt.Errorf("status %d: %s", log.status[i], bytes.TrimSpace(log.reply(i)))
			}
			if err == nil {
				if op.read {
					err = checkRead(log.reply(i), s.Epoch(), now, op.since, lastRead)
				} else {
					err = checkSnapshot(log.reply(i), s.Epoch(), now, markers, frontier)
				}
			}
			if err != nil {
				rep.failed++
				log.latMS[i] = inf
				fail("pass %d op %d: %v", k, i, err)
			}
		}
		if op.read {
			lastRead = now
		}
	}
	return rep
}

// checkSnapshot compares a session reply with the oracle's state;
// markers and frontier < 0 are not checked.
func checkSnapshot(reply []byte, epoch uint64, gateways []int, markers, frontier int) error {
	var got server.SessionResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return err
	}
	switch {
	case got.Epoch != epoch:
		return fmt.Errorf("epoch %d, oracle %d", got.Epoch, epoch)
	case got.NumGateways != len(gateways) || !slices.Equal(got.Gateways, gateways):
		return fmt.Errorf("%d gateways, oracle %d (or a different set)", got.NumGateways, len(gateways))
	case markers >= 0 && got.MarkerChanges != markers:
		return fmt.Errorf("marker_changes %d, oracle %d", got.MarkerChanges, markers)
	case frontier >= 0 && got.FrontierSize != frontier:
		return fmt.Errorf("frontier_size %d, oracle %d", got.FrontierSize, frontier)
	}
	return nil
}

// checkRead checks a GET ?since= reply: the snapshot, and a complete
// diff from the gateway set of the previous read.
func checkRead(reply []byte, epoch uint64, now []int, since uint64, then []int) error {
	if err := checkSnapshot(reply, epoch, now, -1, -1); err != nil {
		return err
	}
	var got server.SessionResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return err
	}
	sum := got.Summary
	if sum == nil || sum.SinceEpoch != since || !sum.Complete {
		return fmt.Errorf("summary %+v, want a complete diff since epoch %d", sum, since)
	}
	added, removed := diffIDs(then, now)
	if !slices.Equal(sum.GatewaysAdded, added) || !slices.Equal(sum.GatewaysRemoved, removed) {
		return fmt.Errorf("summary +%v -%v, oracle +%v -%v", sum.GatewaysAdded, sum.GatewaysRemoved, added, removed)
	}
	return nil
}

// diffIDs returns the ids in b but not a, and in a but not b; both are
// sorted.
func diffIDs(a, b []int) (added, removed []int) {
	i, k := 0, 0
	for i < len(a) || k < len(b) {
		switch {
		case k == len(b) || (i < len(a) && a[i] < b[k]):
			removed = append(removed, a[i])
			i++
		case i == len(a) || b[k] < a[i]:
			added = append(added, b[k])
			k++
		default:
			i++
			k++
		}
	}
	return added, removed
}

func (in *sessInputs) measure(e *env, dur time.Duration, setups int) (*e2eRun, error) {
	r := &e2eRun{}
	var runs []*sessRun
	for k := 0; k < setups; k++ {
		if k > 0 {
			runs[k-1].d.stop()
		}
		s, err := in.start(e, 0)
		if err != nil {
			return nil, err
		}
		runs = append(runs, s)
		r.setups = append(r.setups, s.setupS)
	}
	last := runs[len(runs)-1]
	defer last.d.stop()
	cpu0, _, err := last.d.usage()
	if err != nil {
		return nil, err
	}
	sp := in.run(e, last, dur, false)
	cpu1, _, err := last.d.usage()
	if err != nil {
		return nil, err
	}
	rep := in.replay(runs, []*sessPass{sp})
	for _, log := range sp.logs {
		r.lat = append(r.lat, log.latMS...)
	}
	r.attempted, r.failed, r.wall = rep.attempted, rep.failed, sp.wall
	r.cpu, r.hwmKB = cpu1-cpu0, max(sp.hwmKB[0], sp.hwmKB[1])
	r.problems = append(append(r.problems, sp.problems...), rep.problems...)
	for c, err := range sp.hwmErr {
		switch {
		case err != nil:
			r.problems = append(r.problems, fmt.Sprintf("sessions: caller %d reading peak RSS: %v", c, err))
		case sp.hwmKB[c] == 0:
			r.problems = append(r.problems, fmt.Sprintf("sessions: caller %d stopped before round %d, where peak RSS is read", c, in.rssRound))
		}
	}
	return r, nil
}

func (in *sessInputs) layers(e *env, dur time.Duration) (*layerRun, error) {
	lr := newLayerRun()
	plainRun, err := in.start(e, 0)
	if err != nil {
		return nil, err
	}
	plain := in.run(e, plainRun, dur, false)
	plainRun.d.stop()

	tracedRun, err := in.start(e, traceRing)
	if err != nil {
		return nil, err
	}
	defer tracedRun.d.stop()
	traced := in.run(e, tracedRun, dur, true)
	rings, err := tracedRun.d.traces()
	if err != nil {
		return nil, err
	}
	rep := in.replay([]*sessRun{plainRun, tracedRun}, []*sessPass{plain, traced})
	lr.attempted, lr.failed = rep.attempted, rep.failed
	lr.problems = append(append(append(lr.problems, plain.problems...), traced.problems...), rep.problems...)
	if rep.prefixShort {
		lr.problemf("sessions: a session ran fewer than the %d ops the counts cover", in.prefix)
	}

	all := newTracer(time.Time{}, 0)
	var j joinStats
	var gets []float64
	tracedOps := 0
	for c, tr := range traced.spans {
		j.join(tr, rings, func(op int32) uint64 {
			ji := traced.opOf[c][op]
			return sessTraceID(e.seed, int(ji[0]), int(ji[1]))
		})
		tracedOps += len(traced.opOf[c])
		all.merge(tr)
	}
	for jj, log := range traced.logs {
		for i, lat := range log.latMS {
			if in.plans[jj].ops[i].read {
				gets = append(gets, lat*1e3)
			}
		}
	}
	if err := all.write(e.spans, fmt.Sprintf("sessions-seed%d.csv", e.seed)); err != nil {
		return nil, err
	}
	ok := func(p *sessPass) float64 {
		n := 0
		for _, log := range p.logs {
			for _, lat := range log.latMS {
				if !math.IsInf(lat, 1) {
					n++
				}
			}
		}
		return float64(n) / p.wall.Seconds()
	}

	lr.putBinnedP50("topo.lock_wait_us", j.stage["session-lock-wait"])
	lr.putBinnedP50("topo.apply_us", j.stage["session-apply"])
	lr.putP50("distributed.apply_us", rep.applyUS)
	if rep.prefixBatches > 0 {
		lr.put("distributed.frontier_slots", float64(rep.frontier)/float64(rep.prefixBatches), "count")
		lr.put("distributed.frontier_share", rep.frontierShare/float64(rep.prefixBatches), "ratio")
		lr.put("distributed.messages_per_batch", float64(rep.messages)/float64(rep.prefixBatches), "count")
	}
	if rep.frontier > 0 {
		lr.put("distributed.flip_ratio", float64(rep.flips)/float64(rep.frontier), "ratio")
	}
	lr.putP50("distributed.create_us", rep.createUS)
	lr.putP50("server.session_get_us", gets)
	lr.putBinnedP50("server.queue_wait_us", j.stage["queue-wait"])
	lr.putP50("server.decode_us", rep.decodeUS)
	lr.putBinnedP50("server.encode_us", j.stage["encode"])
	lr.putBinnedP50("server.root_us", j.root)
	lr.putBinnedP50("server.unattributed_us", j.unattributed)
	lr.putP50("server.transport_us", j.transport)
	j.report(lr, "sessions", tracedOps)
	lr.overhead(ok(plain), ok(traced))
	return lr, nil
}
