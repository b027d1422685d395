package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pacds/internal/cds"
	"pacds/internal/xrand"
)

// exactDiff returns the path of the first difference between a and b,
// or "" when they are identical. Unlike reflect.DeepEqual it tells a nil
// slice from an empty one and compares floats by their bits, so -0 and
// +0 differ.
func exactDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return path
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if d := exactDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := exactDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return path
		}
		if !a.IsNil() {
			return exactDiff(path, a.Elem(), b.Elem())
		}
	default:
		if !a.Equal(b) {
			return path
		}
	}
	return ""
}

// checkFast asserts the fast-path contract on one body: when scan
// accepts it, the encoding/json reference accepts it too and decodes the
// identical request. It reports whether scan accepted.
func checkFast[T any](t testing.TB, body []byte, scan func([]byte) (T, bool)) bool {
	t.Helper()
	got, ok := scan(body)
	if !ok {
		return false
	}
	var want T
	if err := decodeBody(body, &want); err != nil {
		t.Fatalf("fast path accepts a body the reference rejects (%v): %q", err, body)
	}
	if d := exactDiff("req", reflect.ValueOf(got), reflect.ValueOf(want)); d != "" {
		t.Fatalf("fast path and reference differ at %s: %q", d, body)
	}
	return true
}

// randomRequests returns count random values of each graph-carrying
// request type, with the corners the scanner must get right: nil and
// empty slices, negative zero, floats json.Marshal writes with an
// exponent, and ints at the 18-digit limit.
func randomRequests(seed uint64, count int) []any {
	rng := xrand.New(seed)
	pick := func(n int) bool { return rng.Intn(n) == 0 }
	anInt := func() int {
		switch rng.Intn(6) {
		case 0:
			return 999999999999999999
		case 1:
			return -rng.Intn(1000)
		default:
			return rng.Intn(1000)
		}
	}
	aFloat := func() float64 {
		corners := []float64{math.Copysign(0, -1), 0, 0.5, 1e21, 1e-7, 5e-324,
			math.MaxFloat64, -1.25e-300, 123456789012345, 1234567890123456789}
		if pick(2) {
			return corners[rng.Intn(len(corners))]
		}
		return float64(rng.Intn(200))
	}
	ints := func() []int {
		if pick(4) {
			return []int{}
		}
		var v []int
		for k := rng.Intn(8); k > 0; k-- {
			v = append(v, anInt())
		}
		return v
	}
	floats := func() []float64 {
		if pick(4) {
			return []float64{}
		}
		var v []float64
		for k := rng.Intn(8); k > 0; k-- {
			v = append(v, aFloat())
		}
		return v
	}
	graph := func() GraphSpec {
		g := GraphSpec{Nodes: anInt()}
		if pick(4) {
			g.Edges = [][2]int{}
		}
		for k := rng.Intn(8); k > 0; k-- {
			g.Edges = append(g.Edges, [2]int{anInt(), anInt()})
		}
		return g
	}
	policy := func() string {
		names := []string{"", "bogus"}
		for _, p := range cds.Policies {
			names = append(names, p.String())
		}
		return names[rng.Intn(len(names))]
	}
	var out []any
	for i := 0; i < count; i++ {
		out = append(out,
			ComputeRequest{Graph: graph(), Policy: policy(), Energy: floats(), IncludeMarked: pick(2)},
			VerifyRequest{Graph: graph(), Gateways: ints()},
			SessionCreateRequest{Graph: graph(), Policy: policy(), Energy: floats()})
	}
	return out
}

// fallbackBodies break the canonical shape one rule at a time (DESIGN
// §8); every scanner must hand them to encoding/json.
var fallbackBodies = []string{
	// Whitespace.
	` {"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID"}`,
	`{"graph": {"nodes":2,"edges":[[0,1]]},"policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[[0, 1]]},"policy":"ID"}`,
	"{\"graph\":{\"nodes\":2,\"edges\":[[0,1]]},\"policy\":\"ID\"}\n",
	// Escapes, control characters and non-ASCII bytes in a string.
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"I\u0044"}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"I\"D"}`,
	"{\"graph\":{\"nodes\":2,\"edges\":[[0,1]]},\"policy\":\"I\tD\"}",
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"IDé"}`,
	"{\"graph\":{\"nodes\":2,\"edges\":[[0,1]]},\"policy\":\"ID\xff\"}",
	// Missing, extra, reordered, duplicated and case-folded keys.
	`{"graph":{"nodes":2,"edges":[[0,1]]}}`,
	`{"graph":{"edges":[[0,1]]},"policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID","bogus":1}`,
	`{"policy":"ID","graph":{"nodes":2,"edges":[[0,1]]}}`,
	`{"graph":{"edges":[[0,1]],"nodes":2},"policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"energy":[1,2],"policy":"EL1"}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID","policy":"ND"}`,
	`{"graph":{"nodes":2,"nodes":3,"edges":[[0,1]]},"policy":"ID"}`,
	`{"Graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID"}`,
	`{"graph":{"NODES":2,"edges":[[0,1]]},"policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"Policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"gateways":[0],"gateways":[1]}`,
	// Int fields that are not plain integers of at most 18 digits.
	`{"graph":{"nodes":2.0,"edges":[[0,1]]},"policy":"ID"}`,
	`{"graph":{"nodes":2e0,"edges":[[0,1]]},"policy":"ID"}`,
	`{"graph":{"nodes":1000000000000000000,"edges":[[0,1]]},"policy":"ID"}`,
	`{"graph":{"nodes":02,"edges":[[0,1]]},"policy":"ID"}`,
	`{"graph":{"nodes":-,"edges":[[0,1]]},"policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[[0,1.0]]},"policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[[0,1e0]]},"policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"gateways":[1.0]}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"gateways":[1E2]}`,
	// Edges without exactly two elements.
	`{"graph":{"nodes":2,"edges":[[1]]},"policy":"ID"}`,
	`{"graph":{"nodes":3,"edges":[[0,1,2]]},"policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[[]]},"policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[null]},"policy":"ID"}`,
	`{"graph":{"nodes":2,"edges":[[0,1],]},"policy":"ID"}`,
	// Energies outside the JSON number grammar or the float64 range.
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[.5,1]}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[+1,1]}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[1.,1]}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[1e,1]}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[01,1]}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[0x10,1]}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[1_0,1]}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[NaN,1]}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[1e999,1]}`,
	// include_marked other than true or false, and faults.
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID","include_marked":null}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID","include_marked":1}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID","faults":{"drop":0.1,"seed":1}}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID","faults":null}`,
	// Bytes after the closing brace.
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID"}x`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID"}}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID"} `,
	// Truncations.
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"ID"`,
	`{"graph":{"nodes":2,"edges":[[0,1`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"I`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"gateways":[0`,
	``,
}

// FuzzFastDecode is the differential target for the fast path: whenever
// a scanner accepts a body, encoding/json accepts it too and decodes the
// identical request.
func FuzzFastDecode(f *testing.F) {
	for _, s := range computeRequestSeeds {
		f.Add([]byte(s))
	}
	for _, s := range fallbackBodies {
		f.Add([]byte(s))
	}
	for _, v := range randomRequests(1, 20) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFast(t, body, scanCompute)
		checkFast(t, body, scanVerify)
		checkFast(t, body, scanSessionCreate)
	})
}

// TestFastDecodeAcceptsMarshalledRequests checks that the fast path
// takes every body json.Marshal writes for the three request types, so
// Client, loadgen and perfbench traffic never falls back.
func TestFastDecodeAcceptsMarshalledRequests(t *testing.T) {
	for _, v := range randomRequests(2, 300) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		switch v.(type) {
		case ComputeRequest:
			ok = checkFast(t, body, scanCompute)
		case VerifyRequest:
			ok = checkFast(t, body, scanVerify)
		case SessionCreateRequest:
			ok = checkFast(t, body, scanSessionCreate)
		}
		if !ok {
			t.Fatalf("fast path declines json.Marshal output %q", body)
		}
	}
}

func TestFastDecodeDeclinesNonCanonicalBodies(t *testing.T) {
	for _, body := range fallbackBodies {
		b := []byte(body)
		if checkFast(t, b, scanCompute) || checkFast(t, b, scanVerify) || checkFast(t, b, scanSessionCreate) {
			t.Errorf("fast path accepts non-canonical body %q", body)
		}
	}
}

// TestFastPathMatchesFallbackEndToEnd sends each canonical body twice,
// as is and behind a leading space that forces the encoding/json path:
// status and response bytes must agree, errors included.
func TestFastPathMatchesFallbackEndToEnd(t *testing.T) {
	s := New(Config{CacheSize: -1, MaxNodes: 100})
	defer s.Close()
	h := s.Handler()
	inst := randomInstance(t, 30, 4)
	spec := specFor(inst.Graph)
	energy := make([]float64, 30)
	for i := range energy {
		energy[i] = float64(10 * (i%7 + 1))
	}
	cases := []struct {
		path string
		req  any
	}{
		{"/v1/compute", ComputeRequest{Graph: spec, Policy: "ND", IncludeMarked: true}},
		{"/v1/compute", ComputeRequest{Graph: spec, Policy: "EL2", Energy: energy}},
		{"/v1/compute", ComputeRequest{Graph: GraphSpec{Nodes: 1000000000000}, Policy: "ID"}},
		{"/v1/compute", ComputeRequest{Graph: GraphSpec{Nodes: 3, Edges: [][2]int{{0, 3}}}, Policy: "ID"}},
		{"/v1/compute", ComputeRequest{Graph: spec, Policy: "EL1", Energy: energy[:5]}},
		{"/v1/verify", VerifyRequest{Graph: spec, Gateways: []int{0, 1, 2}}},
		{"/v1/verify", VerifyRequest{Graph: spec, Gateways: []int{31}}},
		{"/v1/sessions", SessionCreateRequest{Graph: GraphSpec{Nodes: 3, Edges: [][2]int{{1, 1}}}, Policy: "ID"}},
	}
	send := func(path string, body []byte) (int, string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rr.Code, rr.Body.String()
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		fastCode, fast := send(tc.path, body)
		refCode, ref := send(tc.path, append([]byte(" "), body...))
		if fastCode != refCode || fast != ref {
			t.Errorf("%s %s:\nfast path %d %s\nfallback  %d %s", tc.path, body, fastCode, fast, refCode, ref)
		}
	}
}

// TestTrailingBytesRejected covers the decode step all five
// body-decoding handlers share: bytes after the request object are a
// 400, a trailing newline is not.
func TestTrailingBytesRejected(t *testing.T) {
	s := New(Config{SessionReap: -1})
	defer s.Close()
	h := s.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rr
	}
	var sess SessionResponse
	rr := post("/v1/sessions", `{"graph":{"nodes":3,"edges":[[0,1],[1,2]]},"policy":"ID"}`)
	if err := json.Unmarshal(rr.Body.Bytes(), &sess); err != nil || rr.Code != http.StatusCreated {
		t.Fatalf("session create = %d %s", rr.Code, rr.Body)
	}
	cases := []struct{ path, body string }{
		{"/v1/compute", `{"graph":{"nodes":3,"edges":[[0,1],[1,2]]},"policy":"ID"}`},
		{"/v1/verify", `{"graph":{"nodes":3,"edges":[[0,1],[1,2]]},"gateways":[1]}`},
		{"/v1/simulate", `{"n":10,"policy":"ID","drain":"linear","seed":1,"static":true}`},
		{"/v1/sessions", `{"graph":{"nodes":3,"edges":[[0,1],[1,2]]},"policy":"ID"}`},
		{"/v1/sessions/" + sess.ID + "/changes", `{"changes":[{"a":0,"b":2,"up":true}]}`},
	}
	for _, tc := range cases {
		for _, tail := range []string{"x", "{}", " ]", "\n\"\""} {
			if rr := post(tc.path, tc.body+tail); rr.Code != http.StatusBadRequest {
				t.Errorf("%s with trailing %q = %d, want 400", tc.path, tail, rr.Code)
			}
		}
		if rr := post(tc.path, tc.body+"\n"); rr.Code/100 != 2 {
			t.Errorf("%s with a trailing newline = %d %s, want 2xx", tc.path, rr.Code, rr.Body)
		}
	}
}

func TestReadBodyTooLarge(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/compute", strings.NewReader(`{"graph":{"nodes":3}}`))
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, 8)
	var req ComputeRequest
	err := decodeFast(r, &req, scanCompute)
	if err == nil || !strings.Contains(err.Error(), "bad request body: http: request body too large") {
		t.Fatalf("over-cap body: err = %v", err)
	}
}

// TestBodyPoolDropsLargeBuffers checks that a buffer grown for a large
// body is not kept in the pool.
func TestBodyPoolDropsLargeBuffers(t *testing.T) {
	big := bytes.Repeat([]byte{' '}, 2*maxPooledBody)
	buf, err := readBody(httptest.NewRequest(http.MethodPost, "/v1/compute", bytes.NewReader(big)))
	if err != nil {
		t.Fatal(err)
	}
	putBody(buf)
	var held []*bytes.Buffer
	for range 8 {
		b := bodyPool.Get().(*bytes.Buffer)
		if b.Cap() > maxPooledBody {
			t.Fatalf("pool returned a %d-byte buffer, cap is %d", b.Cap(), maxPooledBody)
		}
		held = append(held, b)
	}
	for _, b := range held {
		putBody(b)
	}
}

// TestDecodeFastConcurrent decodes different bodies from several
// goroutines through the pooled body buffers, some on the fast path and
// some on the fallback. Run with -race -count=10, it catches a buffer
// handed to two readers or a request that aliases a recycled buffer.
func TestDecodeFastConcurrent(t *testing.T) {
	var bodies [][]byte
	var want []ComputeRequest
	for i, v := range randomRequests(3, 12) {
		req, ok := v.(ComputeRequest)
		if !ok {
			continue
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			body = append([]byte("\n"), body...)
		}
		var ref ComputeRequest
		if err := decodeBody(body, &ref); err != nil {
			t.Fatal(err)
		}
		bodies, want = append(bodies, body), append(want, ref)
	}
	const workers, rounds = 4, 100
	got := make([][]ComputeRequest, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				r := httptest.NewRequest(http.MethodPost, "/v1/compute", bytes.NewReader(bodies[(w+i)%len(bodies)]))
				var req ComputeRequest
				if err := decodeFast(r, &req, scanCompute); err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], req)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, req := range got[w] {
			k := (w + i) % len(bodies)
			if d := exactDiff("req", reflect.ValueOf(req), reflect.ValueOf(want[k])); d != "" {
				t.Fatalf("worker %d round %d: decoded request differs at %s", w, i, d)
			}
		}
	}
}
