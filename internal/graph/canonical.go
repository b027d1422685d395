package graph

import "sort"

// Canonical graph encoding and digests.
//
// Two graphs compare Equal exactly when their canonical encodings are
// byte-identical, so a hash of the encoding is a cache key for any
// computation that is a pure function of the topology. The serving layer
// (internal/server) keys its result cache on DigestFlat, the same digest
// read off a request's edge list before any graph is built; tests and
// the experiments runner use Digest to deduplicate topologies cheaply.
//
// The encoding is versioned ("pacds-g1") so persisted digests never
// silently collide with a future format change. Layout: magic, node
// count, edge count, then every edge (u < v, ascending u then v) with
// both endpoints delta-encoded as uvarints. Delta encoding keeps the
// canonical form of a 100-host unit-disk graph around 3 bytes/edge, and
// the sorted-adjacency invariant of Graph makes producing it a single
// sweep. Digest hashes the bytes as that sweep produces them, so the
// encoding itself is never built; canonical_test.go builds it, as the
// oracle Digest is checked against.

// canonicalMagic versions the canonical encoding.
const canonicalMagic = "pacds-g1"

// FNV-1a's 64-bit parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Digest returns the 64-bit FNV-1a hash of g's canonical encoding — a
// cheap topology fingerprint suitable for cache keys and dedup maps.
// Collisions are possible in principle (64-bit hash); callers that cannot
// tolerate them must compare the graphs with Equal on digest equality.
func Digest(g *Graph) uint64 {
	h := digestHead(g.NumNodes(), g.NumEdges())
	prevU := NodeID(0)
	for u, list := range g.adj {
		uid := NodeID(u)
		prevV := uid
		for _, v := range list {
			if v <= uid {
				continue // each undirected edge once, as (min, max)
			}
			h = hashUvarint(h, uint64(uid-prevU))
			h = hashUvarint(h, uint64(v-prevV))
			prevU, prevV = uid, v
		}
	}
	return h
}

// DigestFlat returns Digest of the graph FromFlatEdges(n, edges) builds,
// without building it, when the list is in canonical order: u < v in
// every pair, pairs strictly ascending by (u, v). For any other list it
// returns ok == false; CanonicalFlat puts a list in that order. Every
// endpoint must be a valid node (panic otherwise, like FromFlatEdges).
func DigestFlat(n int, edges []NodeID) (d uint64, ok bool) {
	if len(edges)%2 != 0 {
		panic("graph: DigestFlat odd-length edge list")
	}
	h := digestHead(n, len(edges)/2)
	// Digest's walk over the rows, replayed on the pairs: row is the
	// current pair's u, and prevV restarts at it with every new row.
	prevU, prevV, row := NodeID(0), NodeID(0), NodeID(-1)
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		if uint(u) >= uint(n) || uint(v) >= uint(n) {
			panic(badEdge{u, v, n})
		}
		if u >= v || u < row || u == row && v <= prevV {
			return 0, false
		}
		if u != row {
			row, prevV = u, u
		}
		h = hashUvarint(h, uint64(u-prevU))
		h = hashUvarint(h, uint64(v-prevV))
		prevU, prevV = u, v
	}
	return h, true
}

// CanonicalFlat puts a flat edge list of valid, loop-free pairs in
// canonical order in place — each pair as (min, max), the pairs
// ascending, each edge once — and returns it, shortened by the repeats
// it dropped. FromFlatEdges builds the same graph from the result as
// from the list it was given.
func CanonicalFlat(edges []NodeID) []NodeID {
	if len(edges)%2 != 0 {
		panic("graph: CanonicalFlat odd-length edge list")
	}
	for i := 0; i < len(edges); i += 2 {
		if edges[i] > edges[i+1] {
			edges[i], edges[i+1] = edges[i+1], edges[i]
		}
	}
	sort.Sort(flatPairs(edges))
	w := 0
	for i := 0; i < len(edges); i += 2 {
		if w > 0 && edges[i] == edges[w-2] && edges[i+1] == edges[w-1] {
			continue
		}
		edges[w], edges[w+1] = edges[i], edges[i+1]
		w += 2
	}
	return edges[:w]
}

// flatPairs sorts a flat edge list by pair, (u, v) ascending.
type flatPairs []NodeID

func (p flatPairs) Len() int { return len(p) / 2 }

func (p flatPairs) Less(i, j int) bool {
	return p[2*i] < p[2*j] || p[2*i] == p[2*j] && p[2*i+1] < p[2*j+1]
}

func (p flatPairs) Swap(i, j int) {
	p[2*i], p[2*j] = p[2*j], p[2*i]
	p[2*i+1], p[2*j+1] = p[2*j+1], p[2*i+1]
}

// digestHead is the FNV-1a state after the encoding's magic, node count
// and edge count.
func digestHead(n, m int) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(canonicalMagic); i++ {
		h = (h ^ uint64(canonicalMagic[i])) * fnvPrime64
	}
	h = hashUvarint(h, uint64(n))
	return hashUvarint(h, uint64(m))
}

// hashUvarint folds x's uvarint encoding (binary.AppendUvarint) into the
// FNV-1a state h.
func hashUvarint(h, x uint64) uint64 {
	for x >= 0x80 {
		h = (h ^ (x&0x7f | 0x80)) * fnvPrime64
		x >>= 7
	}
	return (h ^ x) * fnvPrime64
}
