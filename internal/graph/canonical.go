package graph

// Canonical graph encoding and digests.
//
// Two graphs compare Equal exactly when their canonical encodings are
// byte-identical, so a hash of the encoding is a cache key for any
// computation that is a pure function of the topology. The serving layer
// (internal/server) keys its result cache on Digest; tests and the
// experiments runner use it to deduplicate topologies cheaply.
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
	h := uint64(fnvOffset64)
	for i := 0; i < len(canonicalMagic); i++ {
		h = (h ^ uint64(canonicalMagic[i])) * fnvPrime64
	}
	h = hashUvarint(h, uint64(g.NumNodes()))
	h = hashUvarint(h, uint64(g.NumEdges()))
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

// hashUvarint folds x's uvarint encoding (binary.AppendUvarint) into the
// FNV-1a state h.
func hashUvarint(h, x uint64) uint64 {
	for x >= 0x80 {
		h = (h ^ (x&0x7f | 0x80)) * fnvPrime64
		x >>= 7
	}
	return (h ^ x) * fnvPrime64
}
