package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// sizing scales every workload's inputs. full is the benchmark; the
// tests use smoke, which keeps each percentile guard satisfiable in a
// run of about two seconds.
type sizing struct {
	// serve, per caller: computes sent once in set-up and repeated from
	// cache, distinct computes that always miss, and verifies.
	serveCached, serveFresh, serveVerify int
	serveMinN, serveMaxN                 int
	// Leading ops per caller (serve) or per session (sessions) that the
	// traced run's exact counts cover; every pass must get past them.
	servePrefix, sessPrefix int
	// sessions: count, host range, and pre-generated ops per session. A
	// caller that runs out of ops fails the run; the fastest 20-s runs
	// seen used about half of full's.
	sessions, sessMinN, sessMaxN, sessOps int
	// sessions: the round over its sessions at which each caller reads
	// cdsd's peak RSS.
	sessRSSRound int
	// scratch: hosts per deployment, deployments, warm-up ops per set-up.
	scratchN, scratchDeploys, scratchWarm int
	// lifetime: the N grid of the cell list, warm-up ops per set-up.
	lifeNMin, lifeNMax, lifeNStep, lifeWarm int
}

var full = sizing{
	serveCached: 96, serveFresh: 1400, serveVerify: 160, serveMinN: 20, serveMaxN: 400,
	servePrefix: 2000, sessPrefix: 60,
	sessions: 24, sessMinN: 300, sessMaxN: 3000, sessOps: 5000, sessRSSRound: 200,
	scratchN: 10000, scratchDeploys: 8, scratchWarm: 4,
	lifeNMin: 20, lifeNMax: 100, lifeNStep: 1, lifeWarm: 120,
}

var smoke = sizing{
	serveCached: 16, serveFresh: 1100, serveVerify: 20, serveMinN: 20, serveMaxN: 60,
	servePrefix: 300, sessPrefix: 20,
	sessions: 24, sessMinN: 60, sessMaxN: 200, sessOps: 2500, sessRSSRound: 50,
	scratchN: 2500, scratchDeploys: 2, scratchWarm: 2,
	lifeNMin: 20, lifeNMax: 40, lifeNStep: 10, lifeWarm: 15,
}

// Paper density: the paper's 100 hosts on a 100×100 field with r = 25,
// kept at every N by scaling the field side to 10·√N.
const radius = 25.0

func paperField(n int) geom.Rect { return geom.Square(10 * math.Sqrt(float64(n))) }

// logStratum returns the midpoint of the k-th of count equal strata of
// [lo, hi] in log N. Sizes drawn this way are the same for every seed, so
// a seed changes which topologies a workload sees but not how large they
// are.
func logStratum(k, count, lo, hi int) int {
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	return int(math.Round(math.Exp(l + (float64(k)+0.5)/float64(count)*(h-l))))
}

// deploy places n hosts uniformly at paper density.
func deploy(rng *xrand.RNG, n int) ([]geom.Point, *graph.Graph) {
	field := paperField(n)
	pos := udg.RandomPositions(udg.Config{N: n, Field: field, Radius: radius}, rng)
	return pos, udg.Build(pos, field, radius)
}

// intEnergies draws integer battery levels in [1, 100].
func intEnergies(rng *xrand.RNG, n int) []float64 {
	e := make([]float64, n)
	for i := range e {
		e[i] = float64(rng.IntRange(1, 100))
	}
	return e
}

// mix derives a stream seed from the run seed, a salt naming the stream,
// and indexes. xrand.Mix absorbs its parts into one state, so two runs of
// small consecutive parts can collide (seed 1, index 2 vs seed 2, index
// 1); chaining it absorbs each part into an already well-mixed value.
func mix(seed, salt uint64, parts ...uint64) uint64 {
	h := xrand.Mix(seed, salt)
	for _, p := range parts {
		h = xrand.Mix(h, p)
	}
	return h
}

// traceID turns a mixed value into an X-Trace-Id, which must not be 0.
func traceID(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// digester fingerprints generated inputs.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) bytes(b []byte) { d.int(len(b)); d.h.Write(b) }

func (d *digester) int(v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	d.h.Write(buf[:])
}

func (d *digester) float(v float64) { d.int(int(math.Float64bits(v))) }

func (d *digester) sum() uint64 { return d.h.Sum64() }
