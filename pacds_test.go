package pacds

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"pacds/internal/broadcast"
	"pacds/internal/cds"
	"pacds/internal/des"
	"pacds/internal/energy"
	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/routing"
	"pacds/internal/sim"
	"pacds/internal/udg"
	"pacds/internal/viz"
)

// The facade tests drive the public API end to end. A check on a
// subsystem the facade does not export calls its internal package
// directly, on inputs built through the facade.

func TestFacadeComputeCDS(t *testing.T) {
	g := FromEdges(5, [][2]NodeID{{0, 1}, {0, 4}, {1, 2}, {1, 4}, {2, 3}})
	res, err := Compute(g, NR, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumGateways() != 2 {
		t.Fatalf("gateways = %v", res.GatewayIDs())
	}
	if err := VerifyCDS(g, res.Gateway); err != nil {
		t.Fatal(err)
	}
	if err := cds.VerifyProperty3(g, res.Marked); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	// Generate network -> compute CDS -> route -> simulate.
	net, err := RandomConnectedNetwork(PaperNetworkConfig(30), NewRNG(1), 1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(net.Graph, ND, nil)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(net.Graph, res.Gateway)
	if err != nil {
		t.Fatal(err)
	}
	path, err := router.Route(0, 29)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 1 || path[0] != 0 {
		t.Fatalf("path = %v", path)
	}

	cfg := PaperSimConfig(20, EL1, LinearDrain{}, 9)
	m, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Intervals <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestFacadeDistributed(t *testing.T) {
	net, err := RandomConnectedNetwork(PaperNetworkConfig(25), NewRNG(2), 1000)
	if err != nil {
		t.Fatal(err)
	}
	gw, stats, err := RunDistributed(net.Graph, ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages == 0 || stats.Rounds == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	want, err := Compute(net.Graph, ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range gw {
		if gw[v] != want.Gateway[v] {
			t.Fatalf("distributed != centralized at node %d", v)
		}
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := FromEdges(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}})
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := graph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 4 || got.NumEdges() != 3 {
		t.Fatalf("round trip: %d nodes %d edges", got.NumNodes(), got.NumEdges())
	}
}

func TestFacadeNames(t *testing.T) {
	p, err := cds.ByName("EL2")
	if err != nil || p != EL2 {
		t.Fatalf("cds.ByName: %v %v", p, err)
	}
	d, err := energy.ByName("quadratic-pergw")
	if err != nil || d.Name() != "quadratic-pergw" {
		t.Fatalf("energy.ByName: %v %v", d, err)
	}
}

func TestFacadeIncrementalMarker(t *testing.T) {
	g := FromEdges(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}})
	im := NewIncrementalMarker(g)
	before := append([]bool(nil), im.Marked()...)
	im.AddEdge(0, 3)
	after := im.Marked()
	same := true
	for i := range after {
		if after[i] != before[i] {
			same = false
		}
	}
	if same {
		t.Fatal("closing the cycle should change some markers")
	}
}

func TestFacadeRuleK(t *testing.T) {
	net, err := RandomConnectedNetwork(PaperNetworkConfig(30), NewRNG(5), 1000)
	if err != nil {
		t.Fatal(err)
	}
	marked := Mark(net.Graph)
	gw, err := cds.ApplyRuleK(net.Graph, ND, marked, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCDS(net.Graph, gw); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTraffic(t *testing.T) {
	cfg := PaperTrafficConfig(15, ND, 9)
	m, err := RunTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Offered != m.Delivered+m.Dropped {
		t.Fatalf("conservation: %+v", m)
	}
}

func TestFacadeParallelTrials(t *testing.T) {
	cfg := PaperSimConfig(12, ND, LinearDrain{}, 3)
	seq, err := sim.RunTrials(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.RunTrialsParallel(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Lifetime {
		if seq.Lifetime[i] != par.Lifetime[i] {
			t.Fatal("parallel trials diverged from sequential")
		}
	}
}

func TestFacadeEnergyAndMobility(t *testing.T) {
	levels := energy.NewLevels(5, 100)
	if levels.N() != 5 {
		t.Fatal("levels wrong")
	}
	var m mobility.Model = NewPaperMobility()
	pts := []geom.Point{{X: 50, Y: 50}}
	m.Step(pts, geom.Square(100), NewRNG(3))
	// The static model satisfies the same interface.
	var s mobility.Model = mobility.Static{}
	s.Step(pts, geom.Square(100), NewRNG(4))
}

func TestFacadeMaintenanceSession(t *testing.T) {
	g := FromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	s, err := NewMaintenanceSession(g, ND, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyChanges([]EdgeChange{{A: 0, B: 4, Up: true}}); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 4)
	want, err := Compute(g, ND, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Gateways()
	for v := range got {
		if got[v] != want.Gateway[v] {
			t.Fatalf("session diverged at node %d", v)
		}
	}
}

func TestFacadeExtendedSim(t *testing.T) {
	cfg := PaperSimConfig(15, ND, LinearDrain{}, 7)
	m, err := sim.RunExtended(cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.FirstDeath <= 0 || m.HalfDeath < m.FirstDeath {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestFacadeFixpointAndClustered(t *testing.T) {
	net, err := udg.RandomClusteredConnected(PaperNetworkConfig(40),
		udg.ClusterConfig{Clusters: 3, Spread: 10}, NewRNG(13), 2000)
	if err != nil {
		t.Fatal(err)
	}
	marked := Mark(net.Graph)
	gw, passes, err := cds.ApplyRulesFixpoint(net.Graph, ND, marked, nil)
	if err != nil {
		t.Fatal(err)
	}
	if passes < 1 {
		t.Fatalf("passes = %d", passes)
	}
	if err := VerifyCDS(net.Graph, gw); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRenderSVG(t *testing.T) {
	net, err := RandomConnectedNetwork(PaperNetworkConfig(12), NewRNG(17), 1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(net.Graph, ND, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = viz.SVG(&buf, net.Graph, net.Positions, net.Config.Field,
		res.Gateway, nil, viz.Options{Title: "facade"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("</svg>")) {
		t.Fatal("no svg output")
	}
}

func TestFacadeBroadcast(t *testing.T) {
	net, err := RandomConnectedNetwork(PaperNetworkConfig(30), NewRNG(19), 1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(net.Graph, ND, nil)
	if err != nil {
		t.Fatal(err)
	}
	flood := Flood(net.Graph, 0)
	via, err := BroadcastViaCDS(net.Graph, 0, res.Gateway)
	if err != nil {
		t.Fatal(err)
	}
	if via.Reached != 30 || flood.Reached != 30 {
		t.Fatalf("coverage: flood %d cds %d", flood.Reached, via.Reached)
	}
	if broadcast.Saving(flood, via) <= 0 {
		t.Fatal("CDS broadcast saved nothing")
	}
}

func TestFacadeMaxMinRouting(t *testing.T) {
	g := FromEdges(4, [][2]NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	r, err := NewRouter(g, []bool{false, true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.RouteMaxMin(0, 3, []float64{100, 10, 90, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[1] != 2 {
		t.Fatalf("path = %v, want relay 2", path)
	}
}

func TestFacadeRemainingSurface(t *testing.T) {
	// Exercise the remaining thin wrappers end to end.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	marked := Mark(g)
	gw, err := cds.ApplyRules(g, ND, marked, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCDS(g, gw); err != nil {
		t.Fatal(err)
	}
	order := []NodeID{3, 2, 1, 0}
	gwo, err := cds.ApplyRulesOrdered(g, ND, marked, nil, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCDS(g, gwo); err != nil {
		t.Fatal(err)
	}

	net, err := udg.Random(PaperNetworkConfig(20), NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := udg.Build(net.Positions, net.Config.Field, net.Config.Radius)
	if rebuilt.NumEdges() != net.Graph.NumEdges() {
		t.Fatal("BuildUnitDiskGraph disagrees with instance graph")
	}

	cnet, err := udg.RandomClustered(PaperNetworkConfig(20), udg.ClusterConfig{Clusters: 2, Spread: 8}, NewRNG(29))
	if err != nil {
		t.Fatal(err)
	}
	if cnet.Graph.NumNodes() != 20 {
		t.Fatal("clustered network wrong size")
	}

	qc := udg.PaperQuasiConfig(25)
	qnet, err := udg.RandomQuasi(qc, NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	if qnet.Graph.NumNodes() != 25 {
		t.Fatal("quasi network wrong size")
	}
	qconn, err := udg.RandomQuasiConnected(udg.PaperQuasiConfig(40), NewRNG(37), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !qconn.Graph.IsConnected() {
		t.Fatal("quasi connected sampler returned disconnected graph")
	}

	r, err := RunAsync(qconn.Graph, des.DefaultConfig(ID, 41), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Violation != nil {
		t.Fatalf("ID async run violated CDS: %v", r.Violation)
	}
}

func TestFacadeAnalyzeCDS(t *testing.T) {
	g := FromEdges(5, [][2]NodeID{{0, 1}, {0, 4}, {1, 2}, {1, 4}, {2, 3}})
	res, err := Compute(g, ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	report, err := cds.Analyze(g, res.Gateway)
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid != nil || report.Gateways != 2 {
		t.Fatalf("report = %+v", report)
	}
}

func TestFacadeChurn(t *testing.T) {
	cfg := sim.ChurnConfig{
		Config:  PaperSimConfig(15, ND, ConstantPerGWDrain{}, 3),
		OffProb: 0.2,
		OnProb:  0.5,
	}
	m, err := sim.RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Intervals <= 0 || m.MeanOn <= 0 || m.MeanOn > 15 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestFacadeDistanceVector(t *testing.T) {
	g := FromEdges(7, [][2]NodeID{{0, 2}, {1, 2}, {2, 5}, {3, 5}, {4, 5}, {6, 5}})
	gw := []bool{false, false, true, false, false, true, false}
	dv, stats, err := routing.BuildTablesDistanceVector(g, gw)
	if err != nil {
		t.Fatal(err)
	}
	if len(dv) != 2 || dv[0][1] != 1 || stats.Messages == 0 {
		t.Fatalf("dv=%v stats=%+v", dv, stats)
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	// 0-1-2-3 path: {1, 2} is the CDS, {0} is neither dominating nor
	// connected-covering.
	g := FromEdges(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}})
	cases := []struct {
		name    string
		do      func() error
		wantSub string
	}{
		{"cds.ByName unknown", func() error {
			_, err := cds.ByName("EL3")
			return err
		}, "unknown policy"},
		{"cds.ByName wrong case", func() error {
			_, err := cds.ByName("el1")
			return err
		}, "unknown policy"},
		{"cds.ByName empty", func() error {
			_, err := cds.ByName("")
			return err
		}, "unknown policy"},
		{"Compute EL1 nil energy", func() error {
			_, err := Compute(g, EL1, nil)
			return err
		}, "needs energy"},
		{"Compute EL2 nil energy", func() error {
			_, err := Compute(g, EL2, nil)
			return err
		}, "needs energy"},
		{"Compute EL1 empty energy", func() error {
			_, err := Compute(g, EL1, []float64{})
			return err
		}, "needs energy"},
		{"Compute EL2 short energy", func() error {
			_, err := Compute(g, EL2, []float64{1, 2})
			return err
		}, "needs energy"},
		{"VerifyCDS non-dominating", func() error {
			return VerifyCDS(g, []bool{true, false, false, false})
		}, "not dominated"},
		{"VerifyCDS empty set", func() error {
			return VerifyCDS(g, []bool{false, false, false, false})
		}, "not dominated"},
		{"VerifyCDS wrong length", func() error {
			return VerifyCDS(g, []bool{true})
		}, "entries"},
		{"VerifyCDS disconnected backbone", func() error {
			// 0 and 3 dominate everything but are not adjacent.
			return VerifyCDS(g, []bool{true, false, false, true})
		}, "disconnected"},
		{"energy.ByName unknown", func() error {
			_, err := energy.ByName("cubic")
			return err
		}, "unknown"},
	}
	for _, tc := range cases {
		err := tc.do()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}

	// Nil energy is valid for topology-keyed policies — guard against
	// over-tightening.
	for _, p := range []Policy{NR, ID, ND} {
		if _, err := Compute(g, p, nil); err != nil {
			t.Errorf("Compute(%v, nil energy) = %v, want success", p, err)
		}
	}
}

func TestFacadeServing(t *testing.T) {
	srv := NewCDSServer(ServerConfig{Workers: 2})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := NewCDSClient(hs.URL, hs.Client())

	g := FromEdges(5, [][2]NodeID{{0, 1}, {0, 4}, {1, 2}, {1, 4}, {2, 3}})
	spec := ServerGraphSpec{Nodes: 5}
	g.Edges(func(u, v NodeID) { spec.Edges = append(spec.Edges, [2]int{int(u), int(v)}) })

	resp, err := client.Compute(context.Background(), ServerComputeRequest{Graph: spec, Policy: "ID"})
	if err != nil {
		t.Fatal(err)
	}
	want := MustComputeGateways(t, g)
	if resp.NumGateways != want {
		t.Fatalf("served %d gateways, library computed %d", resp.NumGateways, want)
	}
	again, err := client.Compute(context.Background(), ServerComputeRequest{Graph: spec, Policy: "ID"})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("repeated request not cached")
	}
	if graph.Digest(g) != graph.Digest(g.Clone()) {
		t.Fatal("digest unstable across clone")
	}
	if graph.Digest(g) == graph.Digest(graph.New(5)) {
		t.Fatal("digest ignores the edges")
	}
}

// MustComputeGateways is a test helper returning the ID-policy gateway
// count.
func MustComputeGateways(t *testing.T, g *Graph) int {
	t.Helper()
	res, err := Compute(g, ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.NumGateways()
}
