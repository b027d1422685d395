// Package topo is the streaming-topology session manager behind cdsd's
// /v1/sessions API: the stateful layer that keeps a power-aware CDS
// maintained *across* topology updates instead of recomputing it from
// scratch per request.
//
// Each session owns one distributed.Session — the paper's localized
// maintenance protocol (Section 2.2) — plus the serving state around it:
// a monotonic epoch, a bounded history of per-batch change summaries for
// cheap long-poll diffing, and usage timestamps for lifecycle policy.
// Sessions are sharded across lock-striped buckets so unrelated networks
// never contend; within a session, delta batches are serialized by a
// per-entry lock, which is exactly the paper's single-writer maintenance
// model (one update interval at a time).
//
// Lifecycle is bounded on every axis: a global session cap with LRU
// eviction under admission pressure, a per-session node cap, a per-batch
// change cap, and an idle TTL enforced by a background reaper. All
// lifecycle events are exported as metrics.
package topo

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pacds/internal/cds"
	"pacds/internal/distributed"
	"pacds/internal/graph"
	"pacds/internal/metrics"
	"pacds/internal/obs"
	"pacds/internal/xrand"
)

// Sentinel errors, wrapped with context by the manager. Test with
// errors.Is.
var (
	// ErrNotFound reports an unknown (or already evicted/expired) session.
	ErrNotFound = errors.New("topo: session not found")
	// ErrInvalid reports client input the manager refused up front: an
	// oversized topology or batch, an out-of-range link event, a wrong
	// energy vector length, a self link. The session is unchanged.
	ErrInvalid = errors.New("topo: invalid session input")
	// ErrLimit reports that the manager could not admit a new session even
	// after attempting LRU eviction.
	ErrLimit = errors.New("topo: session limit reached")
)

// Config parameterizes a Manager. The zero value gets serving defaults
// from withDefaults.
type Config struct {
	// Shards is the lock-stripe count (default 16, rounded up to a power
	// of two).
	Shards int
	// MaxSessions bounds live sessions; admission beyond it evicts the
	// least-recently-used session (default 1024).
	MaxSessions int
	// MaxNodes bounds one session's host population (default 100000).
	MaxNodes int
	// MaxChanges bounds one delta batch's link events (default 4096).
	MaxChanges int
	// IdleTTL expires sessions untouched for this long (default 10m).
	IdleTTL time.Duration
	// ReapInterval is the background reaper period (default 30s; negative
	// disables the goroutine — callers may still call Reap directly).
	ReapInterval time.Duration
	// History bounds the per-session ring of per-batch change summaries
	// kept for since-epoch diffing (default 64).
	History int
	// Registry receives the manager's metrics (nil = private registry).
	Registry *metrics.Registry
	// IDSeed obfuscates session ids (default 1). Ids stay unique for any
	// seed; the seed only varies their appearance.
	IDSeed uint64

	// Now is the clock (default time.Now). Tests inject a fake clock to
	// drive TTL expiry deterministically.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	// Round up to a power of two so shardFor can mask.
	p := 1
	for p < c.Shards {
		p <<= 1
	}
	c.Shards = p
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 100000
	}
	if c.MaxChanges <= 0 {
		c.MaxChanges = 4096
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = 10 * time.Minute
	}
	if c.ReapInterval == 0 {
		c.ReapInterval = 30 * time.Second
	}
	if c.History <= 0 {
		c.History = 64
	}
	if c.IDSeed == 0 {
		c.IDSeed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// EdgeChange is one wire-level link event (re-exported so callers of the
// manager don't need the distributed package for the common path).
type EdgeChange = distributed.EdgeChange

// Snapshot is a point-in-time view of one session, taken under the
// session lock so epoch and gateways are mutually consistent.
type Snapshot struct {
	ID          string
	Epoch       uint64
	Nodes       int
	Policy      cds.Policy
	NumGateways int
	Gateways    []int
	// Batches counts delta batches applied since creation; Changes counts
	// the link events they carried.
	Batches uint64
	Changes uint64
	// MarkerChanges is the number of hosts whose marker flipped in the
	// batch that produced this snapshot (Apply only; zero on Get/Create).
	MarkerChanges int
	// FrontierSize is the number of rule slots the session's most recent
	// rule phase re-evaluated — the dirty frontier of the incremental
	// maintenance path. Right after creation it equals Nodes (bootstrap is
	// a full sweep).
	FrontierSize int
	// Stats are the cumulative maintenance-protocol costs (broadcasts,
	// deliveries, unmark events) since bootstrap.
	Stats distributed.Stats
}

// Summary aggregates the change history between a client-held epoch and
// the current one — the cheap long-poll diff: a client that applies
// GatewaysAdded/GatewaysRemoved to its since-epoch gateway set obtains
// the current set without transferring or rebuilding anything else.
type Summary struct {
	// SinceEpoch echoes the client's epoch.
	SinceEpoch uint64
	// Complete reports whether the retained history covers the whole
	// (SinceEpoch, current] range. When false (the client fell behind the
	// history ring) the diff fields are unusable and the client must
	// resync from the snapshot's full gateway list.
	Complete bool
	// Batches, EdgesUp, EdgesDown, EnergyUpdates and MarkerChanges
	// aggregate the covered batches.
	Batches       int
	EdgesUp       int
	EdgesDown     int
	EnergyUpdates int
	MarkerChanges int
	// GatewaysAdded and GatewaysRemoved are the net gateway-set delta
	// across the range (a host that joined and left nets out), sorted.
	GatewaysAdded   []int
	GatewaysRemoved []int
}

// record is one applied batch's contribution to the history ring.
type record struct {
	epochBefore, epoch uint64
	edgesUp, edgesDown int
	energyUpdate       bool
	markerChanges      int
	added, removed     []int
}

// entry is one live session. The shard lock guards map membership and
// lastUsed; entry.mu guards everything else (the distributed session,
// history, counters) and serializes delta batches.
type entry struct {
	id string

	mu      sync.RWMutex
	dead    bool // removed from its shard; reject further operations
	sess    *distributed.Session
	policy  cds.Policy
	history []record
	batches uint64
	changes uint64
	gwBuf   []bool // scratch for before/after gateway diffs

	created  time.Time
	lastUsed time.Time // guarded by the shard lock, not entry.mu
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// Manager owns every live session. Create with NewManager; stop the
// background reaper with Close.
type Manager struct {
	cfg    Config
	shards []*shard
	count  atomic.Int64
	ids    atomic.Uint64

	quit     chan struct{}
	stopOnce sync.Once
	reaperWG sync.WaitGroup

	gActive    *metrics.Gauge
	cBatches   *metrics.Counter
	cChanges   *metrics.Counter
	cEvictIdle *metrics.Counter
	cEvictLRU  *metrics.Counter
	hApply     *metrics.Histogram
	hFrontier  *metrics.Histogram
}

// NewManager builds a Manager and starts its background reaper (unless
// ReapInterval is negative).
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &Manager{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		quit:   make(chan struct{}),

		gActive:    reg.Gauge("cdsd_sessions_active", "live topology sessions"),
		cBatches:   reg.Counter("cdsd_session_batches_total", "delta batches applied to sessions"),
		cChanges:   reg.Counter("cdsd_session_changes_total", "link events applied to sessions"),
		cEvictIdle: reg.Counter(`cdsd_session_evictions_total{reason="idle"}`, "sessions expired by the idle TTL"),
		cEvictLRU:  reg.Counter(`cdsd_session_evictions_total{reason="lru"}`, "sessions evicted to admit new ones"),
		hApply:     reg.Histogram("cdsd_session_apply_seconds", "delta-batch apply latency in seconds", nil),
		hFrontier: reg.Histogram("cdsd_session_frontier_size",
			"rule slots re-evaluated per delta batch (dirty-frontier size)",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}),
	}
	for i := range m.shards {
		m.shards[i] = &shard{entries: make(map[string]*entry)}
	}
	if cfg.ReapInterval > 0 {
		m.reaperWG.Add(1)
		go m.reaper()
	}
	return m
}

// Close stops the background reaper. Live sessions stay readable until
// the process exits; Close exists so tests and graceful shutdowns don't
// leak the goroutine. Safe to call more than once.
func (m *Manager) Close() {
	m.stopOnce.Do(func() { close(m.quit) })
	m.reaperWG.Wait()
}

// Len returns the number of live sessions.
func (m *Manager) Len() int { return int(m.count.Load()) }

// Cap returns the configured session limit.
func (m *Manager) Cap() int { return m.cfg.MaxSessions }

func (m *Manager) shardFor(id string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return m.shards[h&uint64(len(m.shards)-1)]
}

// Create bootstraps a session over g (which the underlying protocol
// clones; the caller keeps ownership) and returns its first snapshot.
// Admission beyond MaxSessions evicts the least-recently-used session.
func (m *Manager) Create(g *graph.Graph, p cds.Policy, energy []float64) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrInvalid)
	}
	if n := g.NumNodes(); n > m.cfg.MaxNodes {
		return nil, fmt.Errorf("%w: %d nodes exceeds the session limit %d", ErrInvalid, n, m.cfg.MaxNodes)
	}
	// The bootstrap (three protocol phases plus the rule phase) runs
	// before any lock is taken: it is the expensive part and touches only
	// caller-owned state.
	sess, err := distributed.NewSession(g, p, energy)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}

	// Reserve a slot, evicting LRU sessions while over the cap. The CAS
	// loop keeps the limit exact under concurrent admissions; the attempt
	// bound turns a pathological race into an error instead of a spin.
	for attempts := 0; ; attempts++ {
		c := m.count.Load()
		if c < int64(m.cfg.MaxSessions) {
			if m.count.CompareAndSwap(c, c+1) {
				break
			}
			continue
		}
		if attempts >= m.cfg.MaxSessions+16 || !m.evictLRU() {
			return nil, fmt.Errorf("%w (%d live)", ErrLimit, c)
		}
	}
	m.gActive.Set(int64(m.count.Load()))

	now := m.cfg.Now()
	e := &entry{
		id:       fmt.Sprintf("s-%d-%010x", m.ids.Add(1), xrand.Mix(m.cfg.IDSeed, m.ids.Load())&0xffffffffff),
		sess:     sess,
		policy:   p,
		created:  now,
		lastUsed: now,
	}
	sh := m.shardFor(e.id)
	sh.mu.Lock()
	sh.entries[e.id] = e
	sh.mu.Unlock()

	e.mu.RLock()
	snap := e.snapshotLocked()
	e.mu.RUnlock()
	return snap, nil
}

// claim looks a session up and refreshes its lastUsed stamp (any touch —
// poll or mutation — keeps a session alive).
func (m *Manager) claim(id string) (*entry, error) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.entries[id]
	if ok {
		e.lastUsed = m.cfg.Now()
	}
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e, nil
}

// Apply runs one delta batch: an optional full energy refresh followed by
// the link events, each through the maintenance protocol's localized
// update path. The whole batch is validated before any state changes, so
// a rejected batch leaves the session (and its epoch) untouched. Batches
// to one session are serialized; batches to different sessions run
// concurrently.
func (m *Manager) Apply(id string, changes []EdgeChange, energy []float64) (*Snapshot, error) {
	return m.ApplyCtx(context.Background(), id, changes, energy)
}

// ApplyCtx is Apply with request-scoped tracing: when ctx carries an obs
// trace, a session-lock-wait span covers the lookup plus the per-session
// serialization wait, and a session-apply span covers the batch itself
// (annotated with the resulting epoch, marker flips, and frontier size).
// Untraced contexts pay nothing.
func (m *Manager) ApplyCtx(ctx context.Context, id string, changes []EdgeChange, energy []float64) (*Snapshot, error) {
	tr := obs.FromContext(ctx)
	lk := tr.StartSpan("session-lock-wait")
	e, err := m.claim(id)
	if err != nil {
		lk.End()
		return nil, err
	}
	e.mu.Lock()
	lk.End()
	defer e.mu.Unlock()
	if e.dead {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	sp := tr.StartSpan("session-apply")
	defer sp.End()
	snap, err := m.applyLocked(e, changes, energy)
	if err != nil {
		return nil, err
	}
	sp.AttrInt("epoch", int(snap.Epoch)).
		AttrInt("marker_changes", snap.MarkerChanges).
		AttrInt("frontier", snap.FrontierSize)
	return snap, nil
}

// applyLocked validates and applies one delta batch. e.mu must be held.
func (m *Manager) applyLocked(e *entry, changes []EdgeChange, energy []float64) (*Snapshot, error) {
	n := e.sess.NumNodes()
	if len(changes) > m.cfg.MaxChanges {
		return nil, fmt.Errorf("%w: batch of %d changes exceeds the limit %d", ErrInvalid, len(changes), m.cfg.MaxChanges)
	}
	for i, ch := range changes {
		if ch.A == ch.B {
			return nil, fmt.Errorf("%w: change %d: self link %d", ErrInvalid, i, ch.A)
		}
		if ch.A < 0 || ch.B < 0 || int(ch.A) >= n || int(ch.B) >= n {
			return nil, fmt.Errorf("%w: change %d: link %d-%d out of range for %d hosts", ErrInvalid, i, ch.A, ch.B, n)
		}
	}
	if energy != nil && len(energy) != n {
		return nil, fmt.Errorf("%w: %d energy values for %d hosts", ErrInvalid, len(energy), n)
	}

	start := time.Now()
	epochBefore := e.sess.Epoch()
	e.gwBuf = e.sess.GatewaysInto(e.gwBuf)
	before := append([]bool(nil), e.gwBuf...)

	if energy != nil {
		if err := e.sess.UpdateEnergy(energy); err != nil {
			// Unreachable after validation; surface as invalid input, not
			// a server fault.
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	markerChanges, err := e.sess.ApplyChanges(changes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}

	rec := record{
		epochBefore:   epochBefore,
		epoch:         e.sess.Epoch(),
		energyUpdate:  energy != nil,
		markerChanges: markerChanges,
	}
	for _, ch := range changes {
		if ch.Up {
			rec.edgesUp++
		} else {
			rec.edgesDown++
		}
	}
	e.gwBuf = e.sess.GatewaysInto(e.gwBuf)
	for v := range e.gwBuf {
		switch {
		case e.gwBuf[v] && !before[v]:
			rec.added = append(rec.added, v)
		case !e.gwBuf[v] && before[v]:
			rec.removed = append(rec.removed, v)
		}
	}
	e.history = append(e.history, rec)
	if len(e.history) > m.cfg.History {
		e.history = e.history[len(e.history)-m.cfg.History:]
	}
	e.batches++
	e.changes += uint64(len(changes))

	m.cBatches.Inc()
	m.cChanges.Add(uint64(len(changes)))
	m.hApply.Observe(time.Since(start).Seconds())
	m.hFrontier.Observe(float64(e.sess.LastFrontier()))

	snap := e.snapshotLocked()
	snap.MarkerChanges = markerChanges
	return snap, nil
}

// Get returns the current snapshot and, when haveSince is set, the change
// summary covering (since, current]. Polling is cheap: no graph clone,
// one O(V) gateway copy under a read lock.
func (m *Manager) Get(id string, since uint64, haveSince bool) (*Snapshot, *Summary, error) {
	e, err := m.claim(id)
	if err != nil {
		return nil, nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.dead {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	snap := e.snapshotLocked()
	var sum *Summary
	if haveSince {
		sum = e.summarizeLocked(since)
	}
	return snap, sum, nil
}

// Delete removes a session explicitly. Unknown ids return ErrNotFound.
func (m *Manager) Delete(id string) error {
	sh := m.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.entries[id]
	if ok {
		delete(sh.entries, id)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	m.retire(e)
	return nil
}

// Graph returns a clone of the session's current topology together with
// a consistent gateway assignment — the conformance/diagnostic accessor
// (O(V+E); the serving path never calls it).
func (m *Manager) Graph(id string) (*graph.Graph, []bool, error) {
	e, err := m.claim(id)
	if err != nil {
		return nil, nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.dead {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e.sess.Graph(), e.sess.GatewaysInto(nil), nil
}

// retire marks an entry dead (waiting out any in-flight batch) and
// updates the live count.
func (m *Manager) retire(e *entry) {
	e.mu.Lock()
	e.dead = true
	e.mu.Unlock()
	m.count.Add(-1)
	m.gActive.Set(int64(m.count.Load()))
}

// evictLRU removes the globally least-recently-used session. It reports
// whether anything was evicted.
func (m *Manager) evictLRU() bool {
	var victim *entry
	var victimShard *shard
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if victim == nil || e.lastUsed.Before(victim.lastUsed) {
				victim, victimShard = e, sh
			}
		}
		sh.mu.Unlock()
	}
	if victim == nil {
		return false
	}
	victimShard.mu.Lock()
	_, still := victimShard.entries[victim.id]
	if still {
		delete(victimShard.entries, victim.id)
	}
	victimShard.mu.Unlock()
	if !still {
		return false // raced with Delete/Reap; caller retries
	}
	m.retire(victim)
	m.cEvictLRU.Inc()
	return true
}

// Reap removes every session idle longer than IdleTTL and returns how
// many it removed. The background reaper calls it on each tick; tests
// with a fake clock call it directly.
func (m *Manager) Reap() int {
	now := m.cfg.Now()
	reaped := 0
	for _, sh := range m.shards {
		var victims []*entry
		sh.mu.Lock()
		for id, e := range sh.entries {
			if now.Sub(e.lastUsed) > m.cfg.IdleTTL {
				victims = append(victims, e)
				delete(sh.entries, id)
			}
		}
		sh.mu.Unlock()
		for _, e := range victims {
			m.retire(e)
			m.cEvictIdle.Inc()
			reaped++
		}
	}
	return reaped
}

func (m *Manager) reaper() {
	defer m.reaperWG.Done()
	t := time.NewTicker(m.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
			m.Reap()
		}
	}
}

// snapshotLocked builds a Snapshot; the caller holds e.mu (read or
// write).
func (e *entry) snapshotLocked() *Snapshot {
	s := &Snapshot{
		ID:           e.id,
		Epoch:        e.sess.Epoch(),
		Nodes:        e.sess.NumNodes(),
		Policy:       e.policy,
		NumGateways:  e.sess.NumGateways(),
		Batches:      e.batches,
		Changes:      e.changes,
		FrontierSize: e.sess.LastFrontier(),
		Stats:        e.sess.Stats(),
	}
	s.Gateways = make([]int, 0, s.NumGateways)
	for v, in := range e.sess.GatewaysInto(nil) {
		if in {
			s.Gateways = append(s.Gateways, v)
		}
	}
	return s
}

// summarizeLocked aggregates history records with epoch > since; the
// caller holds e.mu.
func (e *entry) summarizeLocked(since uint64) *Summary {
	sum := &Summary{SinceEpoch: since, Complete: true}
	if since >= e.sess.Epoch() {
		return sum // client is current (or ahead): empty, complete diff
	}
	net := make(map[int]int)
	covered := false
	for i := len(e.history) - 1; i >= 0; i-- {
		rec := e.history[i]
		if rec.epoch <= since {
			covered = true
			break
		}
		sum.Batches++
		sum.EdgesUp += rec.edgesUp
		sum.EdgesDown += rec.edgesDown
		sum.MarkerChanges += rec.markerChanges
		if rec.energyUpdate {
			sum.EnergyUpdates++
		}
		for _, v := range rec.added {
			net[v]++
		}
		for _, v := range rec.removed {
			net[v]--
		}
		if rec.epochBefore <= since {
			covered = true
			break
		}
	}
	if !covered {
		// The ring no longer reaches back to the client's epoch.
		return &Summary{SinceEpoch: since, Complete: false}
	}
	for v, d := range net {
		switch {
		case d > 0:
			sum.GatewaysAdded = append(sum.GatewaysAdded, v)
		case d < 0:
			sum.GatewaysRemoved = append(sum.GatewaysRemoved, v)
		}
	}
	sort.Ints(sum.GatewaysAdded)
	sort.Ints(sum.GatewaysRemoved)
	return sum
}
