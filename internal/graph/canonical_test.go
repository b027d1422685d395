package graph

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"
	"testing/quick"

	"pacds/internal/xrand"
)

// appendCanonical appends g's canonical encoding (canonical.go) to buf
// and returns the extended slice. It is the oracle for Digest, which
// hashes the same bytes without building them.
func appendCanonical(buf []byte, g *Graph) []byte {
	buf = append(buf, canonicalMagic...)
	buf = binary.AppendUvarint(buf, uint64(g.NumNodes()))
	buf = binary.AppendUvarint(buf, uint64(g.NumEdges()))
	prevU := NodeID(0)
	for u, list := range g.adj {
		uid := NodeID(u)
		prevV := uid
		for _, v := range list {
			if v <= uid {
				continue // each undirected edge once, as (min, max)
			}
			buf = binary.AppendUvarint(buf, uint64(uid-prevU))
			buf = binary.AppendUvarint(buf, uint64(v-prevV))
			prevU, prevV = uid, v
		}
	}
	return buf
}

// Canonical returns the canonical byte encoding of g. Two graphs are
// Equal iff their canonical encodings are identical.
func Canonical(g *Graph) []byte {
	// 8 magic + 2 uvarints + ~3 bytes per edge is the common case.
	return appendCanonical(make([]byte, 0, 16+len(canonicalMagic)+3*g.NumEdges()), g)
}

// canonicalFNV is Digest's oracle: FNV-1a over the built encoding.
func canonicalFNV(g *Graph) uint64 {
	h := fnv.New64a()
	h.Write(Canonical(g))
	return h.Sum64()
}

// TestDigestMatchesCanonical checks the streamed Digest against FNV-1a
// of Canonical. The fixed graphs pin the empty graph, isolated nodes, and
// node counts, ids and deltas of 128 and of 16384 and more, which take
// two- and three-byte uvarints; the random ones mix all of these.
func TestDigestMatchesCanonical(t *testing.T) {
	fixed := map[string]*Graph{
		"empty0":                   New(0),
		"isolated1":                New(1),
		"isolated300":              New(300),
		"deltas>=128":              FromEdges(200, [][2]NodeID{{0, 199}, {5, 150}, {140, 141}}),
		"ids>=16384":               FromEdges(20000, [][2]NodeID{{3, 16500}, {16500, 19999}}),
		"path":                     Path(130),
		"complete":                 Complete(20),
		"isolated around one edge": FromEdges(500, [][2]NodeID{{499, 0}}),
	}
	for name, g := range fixed {
		if got, want := Digest(g), canonicalFNV(g); got != want {
			t.Errorf("%s: Digest = %016x, FNV-1a of Canonical = %016x", name, got, want)
		}
	}
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := []int{0, 1, 2, 7, 130, 300, 20000}[rng.Intn(7)]
		g := New(n)
		for k := rng.Intn(min(3*n, 600) + 1); n > 1 && k > 0; k-- {
			if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
				g.AddEdge(u, v)
			}
		}
		return Digest(g) == canonicalFNV(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalEqualGraphsAgree(t *testing.T) {
	// Same edge set inserted in different orders must canonicalize
	// identically.
	a := New(5)
	b := New(5)
	edges := [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}
	for _, e := range edges {
		a.AddEdge(e[0], e[1])
	}
	for i := len(edges) - 1; i >= 0; i-- {
		b.AddEdge(edges[i][1], edges[i][0])
	}
	if !bytes.Equal(Canonical(a), Canonical(b)) {
		t.Fatal("insertion order changed the canonical encoding")
	}
	if Digest(a) != Digest(b) {
		t.Fatal("insertion order changed the digest")
	}
}

func TestCanonicalDistinguishes(t *testing.T) {
	cases := map[string]*Graph{
		"empty0":     New(0),
		"empty3":     New(3),
		"path3":      Path(3),
		"path4":      Path(4),
		"cycle4":     Cycle(4),
		"star4":      Star(4),
		"complete4":  Complete(4),
		"singleEdge": FromEdges(4, [][2]NodeID{{0, 1}}),
		"otherEdge":  FromEdges(4, [][2]NodeID{{2, 3}}),
	}
	seen := map[string]string{}
	for name, g := range cases {
		key := string(Canonical(g))
		if prev, ok := seen[key]; ok {
			t.Fatalf("%s and %s share a canonical encoding", prev, name)
		}
		seen[key] = name
	}
}

func TestCanonicalMutationChangesDigest(t *testing.T) {
	g := Path(6)
	d1 := Digest(g)
	g.AddEdge(0, 5)
	d2 := Digest(g)
	if d1 == d2 {
		t.Fatal("adding an edge did not change the digest")
	}
	g.RemoveEdge(0, 5)
	if Digest(g) != d1 {
		t.Fatal("digest did not return to original after undo")
	}
}

func TestCanonicalStableAcrossClone(t *testing.T) {
	g := Complete(7)
	g.RemoveEdge(2, 5)
	c := g.Clone()
	if !bytes.Equal(Canonical(g), Canonical(c)) {
		t.Fatal("clone canonicalizes differently")
	}
}

// isCanonicalFlat is DigestFlat's order test, spelled out: u < v in every
// pair, pairs strictly ascending.
func isCanonicalFlat(flat []NodeID) bool {
	for i := 0; i < len(flat); i += 2 {
		if flat[i] >= flat[i+1] {
			return false
		}
		if i > 0 && (flat[i] < flat[i-2] || flat[i] == flat[i-2] && flat[i+1] <= flat[i-1]) {
			return false
		}
	}
	return true
}

// checkDigestFlat checks DigestFlat on flat against Digest of the graph
// FromFlatEdges builds from it: equal when the list is canonical,
// reported not canonical otherwise, and equal again once CanonicalFlat
// has reordered a copy, which must build the same graph.
func checkDigestFlat(t *testing.T, n int, flat []NodeID) {
	t.Helper()
	g := FromFlatEdges(n, flat)
	want := Digest(g)
	d, ok := DigestFlat(n, flat)
	if ok != isCanonicalFlat(flat) {
		t.Fatalf("N=%d %v: DigestFlat reports canonical = %v", n, flat, ok)
	}
	if ok && d != want {
		t.Fatalf("N=%d %v: DigestFlat = %016x, Digest = %016x", n, flat, d, want)
	}
	c := CanonicalFlat(slices.Clone(flat))
	if !isCanonicalFlat(c) || !Equal(FromFlatEdges(n, c), g) {
		t.Fatalf("N=%d %v: CanonicalFlat gives %v", n, flat, c)
	}
	if d, ok := DigestFlat(n, c); !ok || d != want {
		t.Fatalf("N=%d %v: DigestFlat of the canonical list = %016x, %v; Digest = %016x", n, flat, d, ok, want)
	}
}

// TestDigestFlat runs checkDigestFlat over the lists a request can carry:
// json.Marshal's canonical order, and the same edges shuffled, with pairs
// swapped and with repeats. The fixed lists pin the empty list and a
// break in order at the last pair.
func TestDigestFlat(t *testing.T) {
	for _, tc := range []struct {
		n    int
		flat []NodeID
	}{
		{0, nil},
		{1, []NodeID{}},
		{300, nil},
		{5, []NodeID{0, 1, 0, 4, 1, 2, 1, 4, 2, 3, 3, 4}},
		{5, []NodeID{0, 1, 0, 4, 1, 2, 1, 4, 2, 3, 4, 3}},
		{5, []NodeID{0, 1, 0, 4, 1, 2, 1, 4, 2, 3, 3, 4, 3, 4}},
		{200, []NodeID{0, 199, 5, 150, 140, 141}},
		{20000, []NodeID{3, 16500, 16500, 19999}},
	} {
		checkDigestFlat(t, tc.n, tc.flat)
	}
	rng := xrand.New(9)
	for trial := 0; trial < 60; trial++ {
		n := []int{2, 7, 130, 300, 5000}[rng.Intn(5)]
		var canonical []NodeID
		FromFlatEdges(n, randomFlat(rng, n, rng.Intn(3*n))).Edges(func(u, v NodeID) {
			canonical = append(canonical, u, v)
		})
		shuffled := slices.Clone(canonical)
		rng.Shuffle(len(shuffled)/2, func(i, j int) {
			shuffled[2*i], shuffled[2*j] = shuffled[2*j], shuffled[2*i]
			shuffled[2*i+1], shuffled[2*j+1] = shuffled[2*j+1], shuffled[2*i+1]
		})
		swapped := slices.Clone(canonical)
		for i := 0; i < len(swapped); i += 6 {
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
		}
		for _, flat := range [][]NodeID{canonical, shuffled, swapped, slices.Concat(canonical, canonical[:len(canonical)/4*2])} {
			checkDigestFlat(t, n, flat)
		}
	}
}

// FuzzDigestFlat builds a list of valid pairs over n nodes from the fuzzed
// bytes, two bytes per pair, and runs checkDigestFlat on it.
func FuzzDigestFlat(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(5), []byte{0, 1, 0, 4, 1, 2, 1, 4, 2, 3, 3, 4})
	f.Add(uint8(5), []byte{4, 3, 0, 1, 0, 1})
	f.Add(uint8(200), []byte{0, 199, 5, 150, 140, 141, 140, 141})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		var flat []NodeID
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			if u, v := NodeID(data[i]%n), NodeID(data[i+1]%n); u != v {
				flat = append(flat, u, v)
			}
		}
		checkDigestFlat(t, int(n), flat)
	})
}
