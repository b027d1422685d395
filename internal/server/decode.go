package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// Request decoding (DESIGN §8). Every body-carrying endpoint reads its
// body once, in full, into a pooled buffer. The three bodies that carry a
// GraphSpec — ComputeRequest, VerifyRequest and SessionCreateRequest —
// and a session's delta batch, SessionChangesRequest, first go through a
// scanner that accepts only the canonical shape, the exact bytes
// json.Marshal writes for them, which is what Client, loadgen and
// perfbench send. Every other body, and every body of the other
// endpoints, is decoded by encoding/json in decodeBody, which is also the
// reference the scanner is tested against.

// maxPooledBody caps the buffers kept in bodyPool: a buffer that grew
// past it for one large body is left to the collector instead of staying
// pinned in the pool, where every later small body would keep it alive.
// 64 KiB holds a compute body up to about N=500 at the paper's density.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

var errTrailingData = errors.New("bad request body: data after the JSON object")

// readBody reads r's body in full into a pooled buffer, which the caller
// hands back with putBody once nothing decoded aliases it. A body over
// the endpoint's MaxBytesReader cap fails here with "request body too
// large".
func readBody(r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		putBody(buf)
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return buf, nil
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// decodeJSON reads r's body and decodes it into v with decodeBody.
func decodeJSON(r *http.Request, v any) error {
	buf, err := readBody(r)
	if err != nil {
		return err
	}
	defer putBody(buf)
	return decodeBody(buf.Bytes(), v)
}

// decodeFast is decodeJSON for the graph-carrying requests: when scan
// accepts the body its result is the request, otherwise decodeBody
// decodes the same bytes. scan fills a value of its own, so a body it
// gives up on halfway leaves nothing behind in v.
func decodeFast[T any](r *http.Request, v *T, scan func([]byte) (T, bool)) error {
	buf, err := readBody(r)
	if err != nil {
		return err
	}
	defer putBody(buf)
	if req, ok := scan(buf.Bytes()); ok {
		*v = req
		return nil
	}
	return decodeBody(buf.Bytes(), v)
}

// decodeBody is the reference decode of every request body: one JSON
// value, unknown fields rejected, and nothing after it but whitespace (a
// trailing newline, as json.Encoder writes, is fine).
func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		return errTrailingData
	}
	return nil
}

// scanCompute reads a canonical ComputeRequest:
//
//	{"graph":G,"policy":"P"[,"energy":[...]][,"include_marked":B]}
//
// A body with faults falls back.
func scanCompute(body []byte) (ComputeRequest, bool) {
	s := scanner{b: body, ok: true}
	var req ComputeRequest
	req.Graph, req.Policy, req.Energy = s.graphPolicyEnergy()
	if s.lit(`,"include_marked":`) {
		req.IncludeMarked = s.lit("true")
		if !req.IncludeMarked {
			s.expect("false")
		}
	}
	return req, s.end()
}

// scanVerify reads a canonical VerifyRequest: {"graph":G,"gateways":[...]}.
func scanVerify(body []byte) (VerifyRequest, bool) {
	s := scanner{b: body, ok: true}
	var req VerifyRequest
	s.expect(`{"graph":`)
	req.Graph = s.graph()
	s.expect(`,"gateways":`)
	req.Gateways = scanList(&s, numCount(s.rest()), s.int)
	return req, s.end()
}

// scanSessionCreate reads a canonical SessionCreateRequest:
// {"graph":G,"policy":"P"[,"energy":[...]]}.
func scanSessionCreate(body []byte) (SessionCreateRequest, bool) {
	s := scanner{b: body, ok: true}
	var req SessionCreateRequest
	req.Graph, req.Policy, req.Energy = s.graphPolicyEnergy()
	return req, s.end()
}

// scanSessionChanges reads a canonical SessionChangesRequest:
//
//	{["changes":[{"a":A,"b":B,"up":U},…]][,"energy":[…]]}
//
// where json.Marshal leaves out either field when it is empty.
func scanSessionChanges(body []byte) (SessionChangesRequest, bool) {
	s := scanner{b: body, ok: true}
	var req SessionChangesRequest
	s.need('{')
	if s.lit(`"changes":`) {
		req.Changes = scanList(&s, changeCount(s.rest()), s.change)
		if s.lit(`,"energy":`) {
			req.Energy = s.floats()
		}
	} else if s.lit(`"energy":`) {
		req.Energy = s.floats()
	}
	return req, s.end()
}

// change reads one link event, {"a":A,"b":B,"up":U}.
func (s *scanner) change() SessionEdgeChange {
	var ch SessionEdgeChange
	s.expect(`{"a":`)
	ch.A = s.int()
	s.expect(`,"b":`)
	ch.B = s.int()
	s.expect(`,"up":`)
	if ch.Up = s.lit("true"); !ch.Up {
		s.expect("false")
	}
	s.need('}')
	return ch
}

// changeCount bounds the link events of a list starting at rest: its '{'
// bytes, and no more than one per 23 bytes ({"a":0,"b":0,"up":true}).
func changeCount(rest []byte) int {
	return min(bytes.Count(rest, []byte{'{'}), len(rest)/23+1)
}

// scanner reads one body left to right. Each method consumes exactly the
// bytes the canonical shape has next; on anything else — whitespace, an
// escape, a non-ASCII byte, another key, another number form — it clears
// ok, every later call is a no-op, and the caller falls back.
type scanner struct {
	b  []byte
	i  int
	ok bool
}

func (s *scanner) rest() []byte { return s.b[s.i:] }

// lit consumes tok if the body continues with it.
func (s *scanner) lit(tok string) bool {
	if !s.ok || len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// expect is lit for a token the shape requires.
func (s *scanner) expect(tok string) {
	if !s.lit(tok) {
		s.ok = false
	}
}

// char is lit for one byte, cheap enough for the per-number loops.
func (s *scanner) char(c byte) bool {
	if s.ok && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// need is char for a byte the shape requires.
func (s *scanner) need(c byte) {
	if !s.char(c) {
		s.ok = false
	}
}

// end reports whether the closing brace is the body's last byte.
func (s *scanner) end() bool {
	s.need('}')
	return s.ok && s.i == len(s.b)
}

// graphPolicyEnergy reads the fields a ComputeRequest and a
// SessionCreateRequest open with: {"graph":G,"policy":"P"[,"energy":[...]]
func (s *scanner) graphPolicyEnergy() (g GraphSpec, policy string, energy []float64) {
	s.expect(`{"graph":`)
	g = s.graph()
	s.expect(`,"policy":`)
	policy = s.str()
	if s.lit(`,"energy":`) {
		energy = s.floats()
	}
	return g, policy, energy
}

// graph reads {"nodes":N,"edges":E}. For 0 <= N <= MaxInt32, edges reads
// the list, flat when it can. For any other N, and for a list edges
// cannot keep flat, the list lands in Edges as encoding/json decodes it,
// and edgeList reports what is wrong.
func (s *scanner) graph() GraphSpec {
	var g GraphSpec
	s.expect(`{"nodes":`)
	g.Nodes = s.int()
	s.expect(`,"edges":`)
	if 0 <= g.Nodes && g.Nodes <= math.MaxInt32 {
		g.buf, g.Edges = s.edges(int32(g.Nodes))
	} else {
		g.Edges = scanList(s, edgeCount(s.rest()), s.pair)
	}
	s.need('}')
	return g
}

// edges reads an edge list of a graph of n nodes. While every edge is
// [u,v] with u and v plain decimal integers in [0, n) and u != v, one
// loop over the bytes writes it flat, u0,v0,u1,v1,…, into a pooled
// buffer, and edgeList takes that list as it is. At the first edge that
// is anything else the loop stops, the buffer goes back to the pool, and
// scanElems reads the list from that edge on as scanList would: the list
// comes back as pairs, the flat prefix included, for edgeList to reject.
// Both are sized from the body's bytes, never from n.
func (s *scanner) edges(n int32) (buf *edgeBuf, pairs [][2]int) {
	if s.lit("null") {
		return nil, nil
	}
	if s.need('['); !s.ok {
		return nil, nil
	}
	buf = getEdgeBuf(2 * edgeCount(s.rest()))
	if s.char(']') {
		return buf, nil
	}
	flat := buf.flat
	b, i := s.b, s.i
	for {
		e := i // the edge's '[', where scanElems takes over
		if i == len(b) || b[i] != '[' {
			break
		}
		i++
		// A run of more than ten digits is no node id, and is rejected
		// whatever value it wrapped to.
		u, d := int64(0), i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			u = u*10 + int64(b[i]-'0')
		}
		if i == d || i-d > 10 || i-d > 1 && b[d] == '0' || u >= int64(n) || i == len(b) || b[i] != ',' {
			i = e
			break
		}
		i++
		v, d := int64(0), i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			v = v*10 + int64(b[i]-'0')
		}
		if i == d || i-d > 10 || i-d > 1 && b[d] == '0' || v >= int64(n) || v == u ||
			len(b)-i < 2 || b[i] != ']' || b[i+1] != ',' && b[i+1] != ']' {
			i = e
			break
		}
		flat = append(flat, int32(u), int32(v))
		if i += 2; b[i-1] == ']' {
			s.i = i
			buf.flat = flat
			return buf, nil
		}
	}
	s.i = i
	pairs = make([][2]int, len(flat)/2, len(flat)/2+edgeCount(s.rest()))
	for k := range pairs {
		pairs[k] = [2]int{int(flat[2*k]), int(flat[2*k+1])}
	}
	buf.flat = flat
	buf.put()
	return nil, scanElems(s, pairs, s.pair)
}

// pair reads one edge: exactly two plain integers. encoding/json pads
// [1] to the edge 1-0 and drops the 2 of [0,1,2]; such bodies fall back
// and keep that behaviour.
func (s *scanner) pair() [2]int {
	var e [2]int
	s.need('[')
	e[0] = s.int()
	s.need(',')
	e[1] = s.int()
	s.need(']')
	return e
}

// scanList reads null, [] or an array of elem values: null is a nil slice
// and [] an empty non-nil one, as in encoding/json. size bounds the
// element count from the body's own bytes.
func scanList[T any](s *scanner, size int, elem func() T) []T {
	if s.lit("null") {
		return nil
	}
	if s.need('['); !s.ok {
		return nil
	}
	out := make([]T, 0, size)
	if s.char(']') {
		return out
	}
	return scanElems(s, out, elem)
}

// scanElems reads the rest of a non-empty list, elem values separated by
// commas up to the closing bracket, and appends them to out.
func scanElems[T any](s *scanner, out []T, elem func() T) []T {
	for s.ok {
		out = append(out, elem())
		if s.char(']') {
			return out
		}
		s.need(',')
	}
	return nil
}

// edgeCount bounds the edges of a list starting at rest: its '[' bytes,
// and no more than one edge per six bytes ("[0,1],"), so a run of
// brackets cannot size a slice beyond a small multiple of the body.
func edgeCount(rest []byte) int {
	return min(bytes.Count(rest, []byte{'['}), len(rest)/6+1)
}

// numCount bounds the elements of a number list starting at rest: one
// more than the commas before the first ']', and no more than one per
// two bytes ("0,").
func numCount(rest []byte) int {
	if k := bytes.IndexByte(rest, ']'); k >= 0 {
		rest = rest[:k]
	}
	return min(1+bytes.Count(rest, []byte{','}), len(rest)/2+1)
}

// str reads a string of printable ASCII without escapes, which
// encoding/json decodes to the same bytes.
func (s *scanner) str() string {
	s.need('"')
	for j := s.i; s.ok && j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := string(s.b[s.i:j])
			s.i = j + 1
			return v
		case c < 0x20 || c >= 0x7f || c == '\\':
			s.ok = false
		}
	}
	s.ok = false
	return ""
}

// digits consumes a run of decimal digits. It returns the run's length
// and its value, which is exact up to 18 digits.
func (s *scanner) digits() (n, v int) {
	if !s.ok {
		return 0, 0
	}
	b, i := s.b, s.i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + int(b[i]-'0')
	}
	n, s.i = i-s.i, i
	return n, v
}

// int reads a plain integer of at most 18 digits, which int64 holds
// without overflow, as encoding/json's strconv.ParseInt would. Longer
// numbers fail here; after 1.0 or 1e2 the next token does not match.
func (s *scanner) int() int {
	neg := s.char('-')
	lead := s.i
	n, v := s.digits()
	if n == 0 || n > 18 || n > 1 && s.b[lead] == '0' {
		s.ok = false
		return 0
	}
	if neg {
		return -v
	}
	return v
}

// floats reads a number list as scanList(s, …, s.float) would, in one
// loop over the bytes: an element that is a plain integer of at most 15
// digits, which a float64 holds exactly, is converted where it stands,
// and any other element goes through float.
func (s *scanner) floats() []float64 {
	if s.lit("null") {
		return nil
	}
	if s.need('['); !s.ok {
		return nil
	}
	out := make([]float64, 0, numCount(s.rest()))
	if s.char(']') {
		return out
	}
	b, i := s.b, s.i
	for {
		j := i
		if j < len(b) && b[j] == '-' {
			j++
		}
		v, d := 0, j
		for ; j < len(b) && b[j]-'0' <= 9; j++ {
			v = v*10 + int(b[j]-'0')
		}
		if j == d || j-d > 15 || j-d > 1 && b[d] == '0' || j == len(b) || b[j] != ',' && b[j] != ']' {
			s.i = i
			f := s.float()
			if !s.ok {
				return nil
			}
			out = append(out, f)
			j = s.i
		} else {
			f := float64(v)
			if b[i] == '-' {
				f = -f // negating the float keeps -0 negative
			}
			out = append(out, f)
		}
		switch {
		case j < len(b) && b[j] == ']':
			s.i = j + 1
			return out
		case j < len(b) && b[j] == ',':
			i = j + 1
		default:
			s.i, s.ok = j, false
			return nil
		}
	}
}

// float reads a JSON number with the bits encoding/json gives it,
// strconv.ParseFloat of the token. A plain integer of at most 15 digits
// is exact in a float64 and skips the parse; negating the float, not the
// integer, keeps -0 negative.
func (s *scanner) float() float64 {
	start := s.i
	neg := s.char('-')
	lead := s.i
	n, v := s.digits()
	if n == 0 || n > 1 && s.b[lead] == '0' {
		s.ok = false
		return 0
	}
	intEnd := s.i
	if s.char('.') {
		if m, _ := s.digits(); m == 0 {
			s.ok = false
		}
	}
	if s.char('e') || s.char('E') {
		_ = s.char('+') || s.char('-')
		if m, _ := s.digits(); m == 0 {
			s.ok = false
		}
	}
	if !s.ok {
		return 0
	}
	if s.i == intEnd && n <= 15 {
		f := float64(v)
		if neg {
			f = -f
		}
		return f
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		s.ok = false
	}
	return f
}
