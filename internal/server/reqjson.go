package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"

	"bfast/internal/obs"
)

// One reader for every JSON request body. /v1/detect, /v1/trace and
// /v1/batch send a DetectRequest, /v1/fit a FitHTTPRequest and
// /v1/observe an ObserveHTTPRequest; all five go through decodeBody.
//
// encoding/json costs three passes over every pixel array — a validity
// pre-scan, a skip pass to delimit the value for the custom unmarshaler,
// and the unmarshaler's own scan — which under small-request traffic
// makes body decode rival kernel time, and on the large date-major
// bodies of /v1/fit and /v1/observe dominates the request. parseObject
// does one pass.
//
// A request's rows (DetectRequest.Pixels, FitHTTPRequest.Pixels,
// ObserveHTTPRequest.Dates) decode straight into the pooled buffer the
// kernels read: rows sizes it once from the array's comma count and
// parses every row into it, so each row is a view of the next stretch
// of one contiguous []float64. A handler that has checked every row's
// length hands the first rows×length values to core.NewBatch or the
// NRT manager as they lie; nothing is copied again.
//
// It is deliberately strict: it accepts a body only when it is certain
// encoding/json would decode it into the identical struct — plain
// unescaped ASCII keys and string values, keys matching the wire names
// exactly, canonical JSON number/literal grammar, no trailing data.
// Anything else (escapes, case-folded keys, unknown fields, type
// mismatches, syntax errors) declines, and decodeBody re-parses a fresh
// struct with the stock decoder, so every accept/reject decision and
// every error message stays encoding/json's; it then lays that struct's
// rows into the same buffer, so a handler sees one layout either way.
// The stock decoder is also the oracle the differential tests and
// fuzzers hold this parser to.

// requestBody is a request struct the single-scan parser can fill: field
// decodes the value of one key at the parser's cursor, or declines.
type requestBody[T any] interface {
	*T
	field(p *reqParser, key []byte) bool
	// rowField is the body's array of rows, the field that decodes into
	// the pooled buffer.
	rowField() *[]Series
}

func (req *DetectRequest) rowField() *[]Series      { return &req.Pixels }
func (req *FitHTTPRequest) rowField() *[]Series     { return &req.Pixels }
func (req *ObserveHTTPRequest) rowField() *[]Series { return &req.Dates }

// decodeBuf is one request's decode memory, pooled as a unit: body holds
// the bytes as read, vals the values of the body's rows, laid end to
// end. A handler takes one from getDecodeBuf before decodeBody and gives
// it back with putDecodeBuf once nothing reads vals any more. Detection
// and the NRT manager keep nothing of vals past their return.
type decodeBuf struct {
	body []byte
	vals []float64
}

// maxPooledBody bounds the body buffer a decodeBuf keeps — one outsized
// request must not pin its bytes in the pool, nor hold them while its
// handler runs.
const maxPooledBody = 1 << 20

func (s *Server) getDecodeBuf() *decodeBuf {
	if v := s.decodePool.Get(); v != nil {
		return v.(*decodeBuf)
	}
	return new(decodeBuf)
}

// putDecodeBuf recycles b, buffers and all: a vals that was too small
// for some request was grown in place, so mixed fit and observe traffic
// keeps the larger one.
func (s *Server) putDecodeBuf(b *decodeBuf) { s.decodePool.Put(b) }

// decodeBody reads and bounds the body of r into buf and decodes it into
// a fresh T whose rows are consecutive views of buf.vals. The decode
// span lands on ctx's trace so oversized-JSON cost is visible next to
// kernel cost.
func decodeBody[T any, P requestBody[T]](ctx context.Context, s *Server, r *http.Request, buf *decodeBuf) (*T, *apiError) {
	_, sp := obs.StartSpan(ctx, "decode")
	defer sp.End()
	raw, err := s.readBody(r, buf.body)
	buf.body = raw[:0]
	if cap(raw) > maxPooledBody {
		buf.body = nil // nothing decoded aliases the bytes
	}
	sp.SetAttr("bytes", int64(len(raw)))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		}
		return nil, errf(http.StatusBadRequest, CodeInvalidJSON, "bad request body: %v", err)
	}
	req := new(T)
	var ok bool
	if buf.vals, ok = parseObject(raw, buf.vals, P(req).field); ok {
		return req, nil
	}
	req = new(T) // the fast path may have filled part of the first one
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidJSON, "bad request body: %v", err)
	}
	buf.vals = packRows(buf.vals, *P(req).rowField())
	return req, nil
}

// packRows lays the stock decoder's rows end to end in vals, grown when
// too small, and points each non-empty row at its stretch there: the
// layout rows gives the rows of a body parseObject accepts.
func packRows(vals []float64, rows []Series) []float64 {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	if cap(vals) < total {
		vals = make([]float64, total)
	}
	vals = vals[:cap(vals)]
	off := 0
	for i, row := range rows {
		if len(row) > 0 {
			end := off + copy(vals[off:], row)
			rows[i] = vals[off:end:end]
			off = end
		}
	}
	return vals
}

// parseObject runs the single scan over one JSON object, handing each
// key's value to field; the body's rows decode into vals, grown when too
// small, which it returns either way. It reports false — decline, let
// the stock decoder decide — on anything it is not certain about.
func parseObject(data []byte, vals []float64, field func(p *reqParser, key []byte) bool) ([]float64, bool) {
	p := reqParser{in: data, vals: vals}
	ok := p.object(field)
	return p.vals, ok
}

func (p *reqParser) object(field func(p *reqParser, key []byte) bool) bool {
	p.space()
	if !p.eat('{') {
		return false
	}
	for first := true; ; first = false {
		p.space()
		if p.eat('}') {
			break
		}
		if !first && !p.eat(',') {
			return false
		}
		p.space()
		key, ok := p.str()
		if !ok {
			return false
		}
		p.space()
		if !p.eat(':') {
			return false
		}
		p.space()
		if !field(p, key) {
			return false
		}
	}
	p.space()
	// The streaming decoder ignores trailing bytes after the first value;
	// defer to it rather than reason about them here.
	return p.pos == len(p.in)
}

func (req *DetectRequest) field(p *reqParser, key []byte) bool {
	switch string(key) {
	case "series":
		var ok bool
		req.Series, ok = p.series()
		return ok
	case "pixels":
		return p.rows(&req.Pixels)
	case "n":
		return p.intField(&req.N)
	case "history":
		return p.intValue(&req.History)
	default:
		return req.requestOptions.field(p, key)
	}
}

func (req *FitHTTPRequest) field(p *reqParser, key []byte) bool {
	switch string(key) {
	case "pixels":
		return p.rows(&req.Pixels)
	case "history":
		return p.intValue(&req.History)
	case "capacity":
		return p.intValue(&req.Capacity)
	default:
		return req.requestOptions.field(p, key)
	}
}

func (req *ObserveHTTPRequest) field(p *reqParser, key []byte) bool {
	switch string(key) {
	case "session":
		return p.stringField(&req.Session)
	case "dates":
		return p.rows(&req.Dates)
	default:
		return false
	}
}

func (o *requestOptions) field(p *reqParser, key []byte) bool {
	switch string(key) {
	case "harmonics":
		return p.intField(&o.Harmonics)
	case "frequency":
		return p.floatField(&o.Frequency)
	case "hfrac":
		return p.floatField(&o.HFrac)
	case "level":
		return p.floatField(&o.Level)
	case "process":
		return p.stringField(&o.Process)
	case "noTrend":
		switch {
		case p.literal("true"):
			o.NoTrend = true
		case p.literal("false"):
			o.NoTrend = false
		case p.literal("null"): // the stock decoder leaves the field untouched
		default:
			return false
		}
		return true
	default:
		// Unknown (or case-folded) field: the stock decoder owns the
		// DisallowUnknownFields / fold-matching behavior.
		return false
	}
}

type reqParser struct {
	in  []byte
	pos int
	// vals holds the values of the body's rows; only rows writes it.
	vals []float64
}

func (p *reqParser) space() {
	for p.pos < len(p.in) && isJSONSpace(p.in[p.pos]) {
		p.pos++
	}
}

func (p *reqParser) eat(c byte) bool {
	if p.pos < len(p.in) && p.in[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// literal consumes lit when it stands at the cursor as a whole token.
func (p *reqParser) literal(lit string) bool {
	end := p.pos + len(lit)
	if end <= len(p.in) && string(p.in[p.pos:end]) == lit && (end == len(p.in) || !isTokenByte(p.in[end])) {
		p.pos = end
		return true
	}
	return false
}

// str reads a plain ASCII string, key or value, and returns its bytes
// in the body; escapes or exotic bytes decline (the stock decoder also
// owns case-insensitive key matching).
func (p *reqParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == '"' {
			p.pos++
			return p.in[start : p.pos-1], true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false
		}
		p.pos++
	}
	return nil, false
}

// stringField reads a plain string into dst; null leaves dst untouched,
// as the stock decoder does for a string field.
func (p *reqParser) stringField(dst *string) bool {
	if p.literal("null") {
		return true
	}
	s, ok := p.str()
	if ok {
		*dst = string(s)
	}
	return ok
}

// rows reads an array of series, or a whole-value null. The rows decode
// into p.vals, sized once by arrayShape: each row is a view
// of the stretch after the row before it, its capacity clipped to its
// length. A repeated key decodes over the same buffer from its start.
func (p *reqParser) rows(dst *[]Series) bool {
	if p.literal("null") {
		*dst = nil
		return true
	}
	if !p.eat('[') {
		return false
	}
	n, nrows := p.arrayShape()
	// Non-nil even at length 0, so that an empty row stays an empty row,
	// not a null one.
	if cap(p.vals) < n || p.vals == nil {
		p.vals = make([]float64, n)
	}
	buf := p.vals[:cap(p.vals)]
	used := 0
	out := make([]Series, 0, nrows) // non-nil even when empty, like the stock decoder
	p.space()
	if !p.eat(']') {
		for {
			p.space()
			switch {
			case p.literal("null"):
				out = append(out, nil)
			case p.eat('['):
				n, ok := p.row(buf[used:])
				if !ok {
					return false
				}
				out = append(out, buf[used:used+n:used+n])
				used += n
			default:
				return false
			}
			p.space()
			if p.eat(']') {
				break
			}
			if !p.eat(',') {
				return false
			}
		}
	}
	*dst = out
	return true
}

// arrayShape walks the array of rows whose '[' was just consumed, each
// row a null or a '[' up to its ']', and returns how many rows it has
// and a bound on their values: one more than the commas up to the
// array's ']', capped, as rowLen caps a row, at what a valid array of
// that many bytes can hold — a row's brackets, one byte per value and
// the commas between, and the array's own ']' — so a body of bare commas
// cannot size the buffer past four times its own length. The walk stops
// where the array breaks that pattern, which the parse then declines, so
// it never reads past the array it sizes: a body of repeated row keys
// costs one scan of each array.
func (p *reqParser) arrayShape() (vals, rows int) {
	q := reqParser{in: p.in, pos: p.pos}
	for {
		q.space()
		if q.eat('[') {
			end := bytes.IndexByte(q.in[q.pos:], ']')
			if end < 0 {
				q.pos = len(q.in)
				break
			}
			q.pos += end + 1
			rows++
		} else if q.literal("null") {
			rows++
		}
		q.space()
		if !q.eat(',') {
			q.eat(']')
			break
		}
	}
	span := p.in[p.pos:q.pos]
	return min(bytes.Count(span, []byte{','})+1, max(len(span)-2, 0)/2), rows
}

// series parses one array of numbers/nulls, or a whole-value null, into
// storage of its own.
func (p *reqParser) series() (Series, bool) {
	if p.literal("null") {
		return nil, true
	}
	if !p.eat('[') {
		return nil, false
	}
	out := make(Series, p.rowLen())
	n, ok := p.row(out)
	if !ok {
		return nil, false
	}
	return out[:n], true
}

// row parses the numbers and nulls of the array whose '[' was just
// consumed into dst, through its ']', and returns how many it wrote. It
// declines an array dst cannot hold.
func (p *reqParser) row(dst []float64) (int, bool) {
	n := 0
	for {
		p.space()
		if p.eat(']') {
			return n, true
		}
		if n > 0 {
			if !p.eat(',') {
				return 0, false
			}
			p.space()
		}
		if n == len(dst) {
			return 0, false
		}
		if p.pos < len(p.in) && p.in[p.pos] == 'n' {
			if !p.literal("null") {
				return 0, false
			}
			dst[n] = math.NaN()
		} else {
			v, ok := p.float()
			if !ok {
				return 0, false
			}
			dst[n] = v
		}
		n++
	}
}

// rowLen is the element count of the row whose '[' was just consumed:
// one more than its commas up to the closing ']'. It is capped at what
// a valid row of that many bytes can hold — one byte per value plus the
// commas between — so a body of bare commas cannot size an allocation
// past four times its own length.
func (p *reqParser) rowLen() int {
	row := p.in[p.pos:]
	if end := bytes.IndexByte(row, ']'); end >= 0 {
		row = row[:end]
	}
	return min(bytes.Count(row, []byte{','})+1, (len(row)+1)/2)
}

// float reads one number token as a float64. A token of at most 19
// digits whose mantissa m is at most 2^53 and whose decimal exponent e
// has |e| <= 22 converts as float64(m) × 10^e or float64(m) / 10^-e:
// both operands are exact, so the one IEEE operation rounds the exact
// decimal value correctly (Clinger 1990), and the bits are those of
// strconv.ParseFloat, whose own exact path this is. Every other token
// goes to strconv.ParseFloat.
func (p *reqParser) float() (float64, bool) {
	tok, m, e, ok := p.number()
	if !ok {
		return 0, false
	}
	if m <= 1<<53 && -22 <= e && e <= 22 {
		v := float64(int64(m)) // m <= 2^53: exact, one signed convert
		if e < 0 {
			v /= exactPow10[-e]
		} else {
			v *= exactPow10[e]
		}
		if tok[0] == '-' {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number reads one number token, validating the JSON number grammar in
// the same pass (strconv.ParseFloat alone is laxer: hex floats, leading
// '+', Inf). Hot path — series bodies are almost entirely these tokens.
// The same pass reads the token's value as m × 10^e, m its digits with
// the point and sign dropped, for float. A token of more than 19 digits
// reports an m above 2^53 instead (its m would not fit), and an exponent
// field stops accumulating past 9 999, which still leaves e beyond ±22.
func (p *reqParser) number() (tok []byte, m uint64, e int, ok bool) {
	in, i := p.in, p.pos
	start := i
	if i < len(in) && in[i] == '-' {
		i++
	}
	digits := i
	switch {
	case i < len(in) && in[i] == '0':
		i++
	case i < len(in) && in[i] >= '1' && in[i] <= '9':
		for i < len(in) && isDigit(in[i]) {
			m = m*10 + uint64(in[i]-'0')
			i++
		}
	default:
		return nil, 0, 0, false
	}
	nd := i - digits
	if i < len(in) && in[i] == '.' {
		i++
		if i >= len(in) || !isDigit(in[i]) {
			return nil, 0, 0, false
		}
		frac := i
		for i < len(in) && isDigit(in[i]) {
			m = m*10 + uint64(in[i]-'0')
			i++
		}
		nd += i - frac
		e = frac - i
	}
	if i < len(in) && (in[i] == 'e' || in[i] == 'E') {
		i++
		sign := 1
		if i < len(in) && (in[i] == '+' || in[i] == '-') {
			if in[i] == '-' {
				sign = -1
			}
			i++
		}
		if i >= len(in) || !isDigit(in[i]) {
			return nil, 0, 0, false
		}
		x := 0
		for i < len(in) && isDigit(in[i]) {
			if x < 1e4 {
				x = x*10 + int(in[i]-'0')
			}
			i++
		}
		e += sign * x
	}
	if i < len(in) && isTokenByte(in[i]) {
		return nil, 0, 0, false // e.g. "1x" — token continues past the grammar
	}
	if nd > 19 {
		m = math.MaxUint64
	}
	p.pos = i
	return in[start:i], m, e, true
}

func isTokenByte(c byte) bool {
	return !(c == ',' || c == ']' || c == '}' || isJSONSpace(c))
}

// intValue parses a JSON integer the way encoding/json decodes into an
// int field: the number must be digits only (no fraction or exponent)
// and fit; otherwise decline to the stock decoder's error.
func (p *reqParser) intValue(dst *int) bool {
	tok, _, _, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return false
	}
	*dst = int(v)
	return true
}

func (p *reqParser) intField(dst **int) bool {
	if p.literal("null") {
		*dst = nil
		return true
	}
	v := new(int)
	if !p.intValue(v) {
		return false
	}
	*dst = v
	return true
}

func (p *reqParser) floatField(dst **float64) bool {
	if p.literal("null") {
		*dst = nil
		return true
	}
	v, ok := p.float()
	if ok {
		*dst = &v
	}
	return ok
}
