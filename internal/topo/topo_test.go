package topo

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pacds/internal/cds"
	"pacds/internal/distributed"
	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// testManager builds a reaper-less manager with a controllable clock.
func testManager(t *testing.T, cfg Config) (*Manager, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg.ReapInterval = -1
	cfg.Now = clk.Now
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m, clk
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// ring returns a cycle on n nodes — connected, and every node ends up a
// gateway candidate under the marking process.
func ring(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%n))
	}
	return g
}

func TestLifecycle(t *testing.T) {
	m, clk := testManager(t, Config{IdleTTL: time.Minute})

	snap, err := m.Create(ring(8), cds.ID, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if snap.Epoch != 0 || snap.Nodes != 8 || snap.Batches != 0 {
		t.Fatalf("fresh snapshot = %+v", snap)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}

	// A delta batch advances the epoch and is recorded in the counters.
	after, err := m.Apply(snap.ID, []EdgeChange{{A: 0, B: 4, Up: true}}, nil)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if after.Epoch != 1 || after.Batches != 1 || after.Changes != 1 {
		t.Fatalf("post-apply snapshot = %+v", after)
	}

	// Get returns the same state plus a complete since-diff.
	got, sum, err := m.Get(snap.ID, 0, true)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Epoch != after.Epoch || got.NumGateways != after.NumGateways {
		t.Fatalf("Get = %+v, want %+v", got, after)
	}
	if sum == nil || !sum.Complete || sum.Batches != 1 || sum.EdgesUp != 1 {
		t.Fatalf("summary = %+v", sum)
	}

	// Idle past the TTL: the reaper removes it, further use is 404.
	clk.Advance(2 * time.Minute)
	if n := m.Reap(); n != 1 {
		t.Fatalf("Reap = %d, want 1", n)
	}
	if _, _, err := m.Get(snap.ID, 0, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after reap: %v, want ErrNotFound", err)
	}
	if _, err := m.Apply(snap.ID, nil, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Apply after reap: %v, want ErrNotFound", err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len after reap = %d, want 0", m.Len())
	}
}

func TestTouchKeepsAlive(t *testing.T) {
	m, clk := testManager(t, Config{IdleTTL: time.Minute})
	snap, err := m.Create(ring(6), cds.ID, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Polling every 40s never lets the session go idle past the TTL.
	for i := 0; i < 5; i++ {
		clk.Advance(40 * time.Second)
		if _, _, err := m.Get(snap.ID, 0, false); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if n := m.Reap(); n != 0 {
			t.Fatalf("Reap %d evicted %d sessions", i, n)
		}
	}
}

func TestDelete(t *testing.T) {
	m, _ := testManager(t, Config{})
	snap, err := m.Create(ring(6), cds.ID, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := m.Delete(snap.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := m.Delete(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Delete: %v, want ErrNotFound", err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
}

func TestInvalidInputs(t *testing.T) {
	m, _ := testManager(t, Config{MaxNodes: 10, MaxChanges: 2})

	if _, err := m.Create(nil, cds.ID, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("nil graph: %v", err)
	}
	if _, err := m.Create(ring(11), cds.ID, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized graph: %v", err)
	}
	// Energy-aware policy without energy is refused by the protocol layer.
	if _, err := m.Create(ring(6), cds.EL1, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("EL1 without energy: %v", err)
	}

	snap, err := m.Create(ring(6), cds.ID, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cases := []struct {
		name    string
		changes []EdgeChange
		energy  []float64
	}{
		{"oversized batch", []EdgeChange{{A: 0, B: 2, Up: true}, {A: 1, B: 3, Up: true}, {A: 1, B: 4, Up: true}}, nil},
		{"self link", []EdgeChange{{A: 3, B: 3, Up: true}}, nil},
		{"out of range", []EdgeChange{{A: 0, B: 6, Up: true}}, nil},
		{"negative node", []EdgeChange{{A: -1, B: 2, Up: true}}, nil},
		{"short energy", nil, []float64{1, 2, 3}},
	}
	for _, tc := range cases {
		if _, err := m.Apply(snap.ID, tc.changes, tc.energy); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", tc.name, err)
		}
	}
	// All rejected batches left the session untouched.
	got, _, err := m.Get(snap.ID, 0, false)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Epoch != 0 || got.Batches != 0 {
		t.Fatalf("session mutated by rejected batches: %+v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	m, clk := testManager(t, Config{MaxSessions: 3})
	var ids []string
	for i := 0; i < 3; i++ {
		snap, err := m.Create(ring(5), cds.ID, nil)
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		ids = append(ids, snap.ID)
		clk.Advance(time.Second)
	}
	// Touch the oldest so the middle one becomes LRU.
	if _, _, err := m.Get(ids[0], 0, false); err != nil {
		t.Fatalf("touch: %v", err)
	}

	snap, err := m.Create(ring(5), cds.ID, nil)
	if err != nil {
		t.Fatalf("Create over cap: %v", err)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if _, _, err := m.Get(ids[1], 0, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU session survived: %v", err)
	}
	for _, id := range []string{ids[0], ids[2], snap.ID} {
		if _, _, err := m.Get(id, 0, false); err != nil {
			t.Errorf("session %s evicted unexpectedly: %v", id, err)
		}
	}
}

// TestConcurrentApplies hammers one session from many goroutines. Batches
// must serialize: the final epoch equals the batch count, every observed
// epoch is within range, and the data race detector stays quiet.
func TestConcurrentApplies(t *testing.T) {
	m, _ := testManager(t, Config{})
	snap, err := m.Create(ring(12), cds.ID, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(xrand.Mix(42, uint64(w)))
			for i := 0; i < perWorker; i++ {
				a := graph.NodeID(rng.Intn(12))
				b := graph.NodeID((int(a) + 2 + rng.Intn(8)) % 12)
				if a == b {
					b = (b + 1) % 12
				}
				s, err := m.Apply(snap.ID, []EdgeChange{{A: a, B: b, Up: i%2 == 0}}, nil)
				if err != nil {
					errs <- err
					return
				}
				if s.Epoch == 0 || s.Epoch > workers*perWorker {
					errs <- errors.New("epoch out of range")
					return
				}
				// Concurrent reads must never block on or race with writers.
				if _, _, err := m.Get(snap.ID, s.Epoch, true); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final, _, err := m.Get(snap.ID, 0, false)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if final.Epoch != workers*perWorker || final.Batches != workers*perWorker {
		t.Fatalf("final epoch/batches = %d/%d, want %d", final.Epoch, final.Batches, workers*perWorker)
	}
}

// TestSummaryDiff drives a session through batches and checks that
// replaying the since-diff reconstructs the current gateway set exactly.
func TestSummaryDiff(t *testing.T) {
	m, _ := testManager(t, Config{History: 4})
	rng := xrand.New(xrand.Mix(2026, 7))
	inst, err := udg.RandomConnected(udg.Config{N: 24, Field: geom.Square(100), Radius: 30}, rng, 50)
	if err != nil {
		t.Fatalf("RandomConnected: %v", err)
	}
	snap, err := m.Create(inst.Graph, cds.ND, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	have := map[int]bool{}
	for _, v := range snap.Gateways {
		have[v] = true
	}
	sinceEpoch := snap.Epoch

	for step := 0; step < 10; step++ {
		a := graph.NodeID(rng.Intn(24))
		b := graph.NodeID(rng.Intn(24))
		if a == b {
			continue
		}
		if _, err := m.Apply(snap.ID, []EdgeChange{{A: a, B: b, Up: step%3 != 0}}, nil); err != nil {
			t.Fatalf("Apply %d: %v", step, err)
		}
		// Every other step the client catches up via the diff.
		if step%2 == 1 {
			got, sum, err := m.Get(snap.ID, sinceEpoch, true)
			if err != nil {
				t.Fatalf("Get %d: %v", step, err)
			}
			if !sum.Complete {
				t.Fatalf("step %d: diff incomplete within history window", step)
			}
			for _, v := range sum.GatewaysAdded {
				have[v] = true
			}
			for _, v := range sum.GatewaysRemoved {
				delete(have, v)
			}
			want := map[int]bool{}
			for _, v := range got.Gateways {
				want[v] = true
			}
			if len(have) != len(want) {
				t.Fatalf("step %d: replayed %d gateways, want %d", step, len(have), len(want))
			}
			for v := range want {
				if !have[v] {
					t.Fatalf("step %d: replay missing gateway %d", step, v)
				}
			}
			sinceEpoch = got.Epoch
		}
	}

	// A client further behind than the 4-entry history ring gets an
	// explicit incomplete diff, and a current client gets an empty one.
	_, sum, err := m.Get(snap.ID, 0, true)
	if err != nil {
		t.Fatalf("Get stale: %v", err)
	}
	if sum.Complete {
		t.Fatal("diff across 10 batches claims complete with History=4")
	}
	cur, sum2, err := m.Get(snap.ID, sinceEpoch, true)
	if err != nil {
		t.Fatalf("Get current: %v", err)
	}
	if sinceEpoch != cur.Epoch {
		t.Fatalf("epoch advanced unexpectedly: %d != %d", sinceEpoch, cur.Epoch)
	}
	if !sum2.Complete || sum2.Batches != 0 {
		t.Fatalf("current-client diff = %+v, want empty complete", sum2)
	}
}

// TestMatchesStandaloneSession checks the manager is a faithful wrapper:
// driving identical batches through a bare distributed.Session yields the
// same epochs and gateway sets.
func TestMatchesStandaloneSession(t *testing.T) {
	g := ring(16)
	oracle, err := distributed.NewSession(g, cds.ID, nil)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	m, _ := testManager(t, Config{})
	snap, err := m.Create(g, cds.ID, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	rng := xrand.New(xrand.Mix(9, 9))
	for step := 0; step < 20; step++ {
		batch := []EdgeChange{}
		for k := 0; k < 1+rng.Intn(3); k++ {
			a := graph.NodeID(rng.Intn(16))
			b := graph.NodeID((int(a) + 1 + rng.Intn(15)) % 16)
			batch = append(batch, EdgeChange{A: a, B: b, Up: rng.Intn(2) == 0})
		}
		if _, err := oracle.ApplyChanges(batch); err != nil {
			t.Fatalf("oracle step %d: %v", step, err)
		}
		got, err := m.Apply(snap.ID, batch, nil)
		if err != nil {
			t.Fatalf("Apply step %d: %v", step, err)
		}
		if got.Epoch != oracle.Epoch() {
			t.Fatalf("step %d: epoch %d != oracle %d", step, got.Epoch, oracle.Epoch())
		}
		want := oracle.Gateways()
		if got.NumGateways != countTrue(want) {
			t.Fatalf("step %d: %d gateways, oracle %d", step, got.NumGateways, countTrue(want))
		}
		for _, v := range got.Gateways {
			if !want[v] {
				t.Fatalf("step %d: gateway %d not in oracle set", step, v)
			}
		}
	}

	// Graph() exposes a consistent topology/assignment pair.
	gg, gw, err := m.Graph(snap.ID)
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if gg.NumNodes() != 16 || len(gw) != 16 {
		t.Fatalf("Graph returned %d nodes, %d assignments", gg.NumNodes(), len(gw))
	}
}

func TestEnergyBatch(t *testing.T) {
	m, _ := testManager(t, Config{})
	energy := make([]float64, 10)
	for i := range energy {
		energy[i] = 50
	}
	snap, err := m.Create(ring(10), cds.EL1, energy)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// A combined energy+links batch bumps the epoch twice (UpdateEnergy
	// then ApplyChanges) and records one energy update in the summary.
	energy[3] = 5
	after, err := m.Apply(snap.ID, []EdgeChange{{A: 0, B: 5, Up: true}}, energy)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if after.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", after.Epoch)
	}
	_, sum, err := m.Get(snap.ID, 0, true)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !sum.Complete || sum.EnergyUpdates != 1 || sum.EdgesUp != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestCreateAtCapEvictsEachTime(t *testing.T) {
	m, clk := testManager(t, Config{MaxSessions: 1})
	first, err := m.Create(ring(5), cds.ID, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	clk.Advance(time.Second)
	second, err := m.Create(ring(5), cds.ID, nil)
	if err != nil {
		t.Fatalf("Create at cap: %v", err)
	}
	if _, _, err := m.Get(first.ID, 0, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("first session survived eviction: %v", err)
	}
	if _, _, err := m.Get(second.ID, 0, false); err != nil {
		t.Fatalf("second session missing: %v", err)
	}
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// TestCreateKeepsNoGraphReference pins that Create, and the
// distributed.NewSession under it, keep no reference to the graph they
// are handed, which lets cdsd build each session-create graph in a
// pooled graph.Builder. After the create, the builder builds another
// graph over the same storage; the session must still match one
// created from a graph of its own, through a series of batches.
func TestCreateKeepsNoGraphReference(t *testing.T) {
	const n = 120
	inst, err := udg.RandomConnected(udg.PaperConfig(n), xrand.New(4), 2000)
	if err != nil {
		t.Fatal(err)
	}
	var flat, mirrored []graph.NodeID
	inst.Graph.Edges(func(u, v graph.NodeID) {
		flat = append(flat, u, v)
		mirrored = append(mirrored, n-1-v, n-1-u)
	})
	energy := make([]float64, n)
	for i := range energy {
		energy[i] = float64(i%7 + 1)
	}
	var b graph.Builder
	m, _ := testManager(t, Config{})
	snap, err := m.Create(b.Build(n, flat), cds.EL2, energy)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// The mirror image has as many arcs, so this build rewrites the rows,
	// the arena and the view the session was created from.
	b.Build(n, mirrored)
	oracle, err := distributed.NewSession(inst.Graph, cds.EL2, energy)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	for step := 0; step < 30; step++ {
		var batch []EdgeChange
		for k := 0; k < 4; k++ {
			a := graph.NodeID(rng.Intn(n))
			c := graph.NodeID((int(a) + 1 + rng.Intn(n-1)) % n)
			batch = append(batch, EdgeChange{A: a, B: c, Up: rng.Intn(2) == 0})
		}
		if _, err := oracle.ApplyChanges(batch); err != nil {
			t.Fatal(err)
		}
		if snap, err = m.Apply(snap.ID, batch, nil); err != nil {
			t.Fatal(err)
		}
		want := oracle.Gateways()
		if snap.NumGateways != countTrue(want) {
			t.Fatalf("step %d: %d gateways, a session of its own has %d", step, snap.NumGateways, countTrue(want))
		}
		for _, v := range snap.Gateways {
			if !want[v] {
				t.Fatalf("step %d: gateway %d not in the own session's set", step, v)
			}
		}
	}
	g, _, err := m.Graph(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(g, oracle.Graph()) {
		t.Fatal("the session's topology follows the builder's storage")
	}
}
