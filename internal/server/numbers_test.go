package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// The two number conversions on the wire — reqParser.float reading a
// request's numbers, appendJSONFloat writing a reply's — are held to
// the library conversions they replace: the old number() scan followed
// by strconv.ParseFloat, and json.Marshal of a float64.

// oracleNumber is reqParser.number as it was before it read values: the
// JSON number grammar alone. float must agree with it followed by
// strconv.ParseFloat on the value's bits, the ok flag and the cursor.
func oracleNumber(in []byte, pos int) ([]byte, int, bool) {
	i := pos
	if i < len(in) && in[i] == '-' {
		i++
	}
	switch {
	case i < len(in) && in[i] == '0':
		i++
	case i < len(in) && in[i] >= '1' && in[i] <= '9':
		for i < len(in) && isDigit(in[i]) {
			i++
		}
	default:
		return nil, pos, false
	}
	if i < len(in) && in[i] == '.' {
		i++
		if i >= len(in) || !isDigit(in[i]) {
			return nil, pos, false
		}
		for i < len(in) && isDigit(in[i]) {
			i++
		}
	}
	if i < len(in) && (in[i] == 'e' || in[i] == 'E') {
		i++
		if i < len(in) && (in[i] == '+' || in[i] == '-') {
			i++
		}
		if i >= len(in) || !isDigit(in[i]) {
			return nil, pos, false
		}
		for i < len(in) && isDigit(in[i]) {
			i++
		}
	}
	if i < len(in) && isTokenByte(in[i]) {
		return nil, pos, false
	}
	return in[pos:i], i, true
}

// checkReqNumber reads one number at in[pos:] both ways and reports a
// disagreement.
func checkReqNumber(in []byte, pos int) error {
	var want float64
	tok, wantPos, wantOK := oracleNumber(in, pos)
	if wantOK {
		var err error
		want, err = strconv.ParseFloat(string(tok), 64)
		wantOK = err == nil
	}
	p := reqParser{in: in, pos: pos}
	got, gotOK := p.float()
	switch {
	case gotOK != wantOK || p.pos != wantPos:
		return fmt.Errorf("%q at %d: ok %v cursor %d, want ok %v cursor %d", in, pos, gotOK, p.pos, wantOK, wantPos)
	case gotOK && math.Float64bits(got) != math.Float64bits(want):
		return fmt.Errorf("%q at %d: %v (%#x), want %v (%#x)", in, pos, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return nil
}

// numberTokens are the boundaries of float's exact path: mantissas of
// 15 to 20 digits and around 2^53, exponents around ±22 from the
// exponent field and from the fraction, zeros, and the grammar's edges.
var numberTokens = []string{
	"0", "-0", "0.0000", "-0.0", "0e0", "-0e-400", "0e400", "1", "-1",
	"123456789012345", "1234567890123456", "12345678901234567", "1234567890123456789",
	"12345678901234567890", "0.1234567890123456789", "-9.999999999999999999",
	"9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993",
	"9007199254740992e1", "9007199254740993e-1", "18014398509481985e-1",
	"1e22", "1e23", "1e-22", "1e-23", "9e22", "4.5e-22", "123e20", "123e-25",
	"0.1234567890123456789012", "0.12345678901234567890123", "1.0000000000000000000000",
	"0.0000000000000000000001", "0.00000000000000000000001",
	"3.1415", "-273.15", "0.1", "0.2", "0.3", "1.7976931348623157e308", "1.8e308",
	"5e-324", "2.4e-324", "2.5e-324", "4.9406564584124654e-324", "2.2250738585072014e-308",
	"1E5", "1e+5", "1e-5", "1e00022", "1e0000000000000000000022", "1e99999999999999999999",
	"", "-", "01", "1.", ".5", "+1", "1e", "1e+", "--1", "1x", "0x1", "Inf", "NaN", "null",
	"1,", "1]", "1 ", "1}", "1\t", "-0.5e-3,",
}

func TestReqNumberTable(t *testing.T) {
	for _, tok := range numberTokens {
		in := []byte(tok)
		for pos := 0; pos <= len(in); pos++ {
			if err := checkReqNumber(in, pos); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestReqNumberRandom covers the exact path's bulk: short decimals as
// clients write them and shortest forms of random doubles, with random
// exponents on top.
func TestReqNumberRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var b []byte
	for i := 0; i < 200000; i++ {
		b = b[:0]
		switch i % 4 {
		case 0:
			b = strconv.AppendFloat(b, math.Round(rng.NormFloat64()*1e7)/1e4, 'f', 4, 64)
		case 1:
			b = strconv.AppendFloat(b, math.Float64frombits(rng.Uint64()), 'g', -1, 64)
		case 2:
			b = strconv.AppendInt(b, rng.Int63n(1<<54), 10)
			b = append(b, 'e')
			b = strconv.AppendInt(b, int64(rng.Intn(61)-30), 10)
		default:
			b = strconv.AppendFloat(b, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(50)-25)), 'e', rng.Intn(20), 64)
		}
		if err := checkReqNumber(b, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzReqNumber feeds arbitrary bytes at an arbitrary cursor to float
// and to the oracle pair.
func FuzzReqNumber(f *testing.F) {
	for _, tok := range numberTokens {
		f.Add([]byte(tok), uint(0))
	}
	f.Add([]byte(`[1.5,-0.25e3]`), uint(1))
	f.Fuzz(func(t *testing.T, in []byte, pos uint) {
		if err := checkReqNumber(in, int(pos%uint(len(in)+1))); err != nil {
			t.Fatal(err)
		}
	})
}

// checkJSONFloat compares appendJSONFloat with json.Marshal for one
// finite v, writing after a prefix so that the append is checked too.
func checkJSONFloat(v float64) error {
	want, err := json.Marshal(v)
	if err != nil {
		return err
	}
	got := appendJSONFloat([]byte("x"), v)
	if string(got[1:]) != string(want) || got[0] != 'x' {
		return fmt.Errorf("%#x: %s, want %s", math.Float64bits(v), got[1:], want)
	}
	return nil
}

// jsonFloatCases are the writer's boundaries: the zeros, both ends of
// the 'f' layout, the integers around 2^53, the extreme magnitudes, and
// every finite power of two ±3 ulps (where the gap below v halves).
func jsonFloatCases() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), 1e-6, 1e21, 1e-7, 1e20, 1e22, 123456789e-14,
		1 << 53, 1<<53 - 1, 1<<53 + 2, -(1<<53 - 1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 2.2250738585072014e-308,
		2.225073858507201e-308, 0.1, 0.2, 0.3, 1.5, 100, 1e15, 1e16, 1e17,
		123456789012345680, 5e-324, 1e-323, 9007199254740993, 0.000123, 4.35,
	}
	for _, v := range []float64{1e-6, 1e21, 1e-7, 1e20} {
		for _, dir := range []float64{0, math.Inf(1)} {
			w := v
			for i := 0; i < 3; i++ {
				w = math.Nextafter(w, dir)
				vs = append(vs, w)
			}
		}
	}
	for e := -1074; e <= 1023; e++ {
		u := math.Float64bits(math.Ldexp(1, e))
		for d := -3; d <= 3; d++ {
			if v := math.Float64frombits(u + uint64(d)); (d >= 0 || u >= uint64(-d)) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
	}
	for i, n := 0, len(vs); i < n; i++ {
		vs = append(vs, -vs[i])
	}
	return vs
}

func TestAppendJSONFloat(t *testing.T) {
	for _, v := range jsonFloatCases() {
		if err := checkJSONFloat(v); err != nil {
			t.Error(err)
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 300000; i++ {
		var v float64
		switch i % 4 {
		case 0:
			v = math.Float64frombits(rng.Uint64())
		case 1:
			v = rng.NormFloat64() * 2
		case 2:
			v = float64(rng.Int63n(1 << 54))
		default:
			v = math.Round(rng.NormFloat64()*1e7) / 1e4
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if err := checkJSONFloat(v); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzAppendJSONFloat holds the writer to json.Marshal on arbitrary bit
// patterns.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range jsonFloatCases()[:40] {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		if err := checkJSONFloat(v); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShortestDecimalBounds checks, against exact arithmetic, the
// integer logarithms shortestDecimal takes from fixed-point products
// over the whole float64 exponent range, and that every table entry is
// scaled into [2^127, 2^128).
func TestShortestDecimalBounds(t *testing.T) {
	ten := big.NewInt(10)
	// floorLog10 returns the k with 10^k <= num/den < 10^(k+1).
	floorLog10 := func(num, den *big.Int) int {
		k := 0
		p := big.NewInt(1)
		for new(big.Int).Mul(p, den).Cmp(num) > 0 { // 10^k > num/den
			k--
			num = new(big.Int).Mul(num, ten)
		}
		for {
			next := new(big.Int).Mul(p, ten)
			if new(big.Int).Mul(next, den).Cmp(num) > 0 {
				return k
			}
			p = next
			k++
		}
	}
	pow2 := func(q int) (num, den *big.Int) {
		if q >= 0 {
			return new(big.Int).Lsh(big.NewInt(1), uint(q)), big.NewInt(1)
		}
		return big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(-q))
	}
	for q := -1074; q <= 971; q++ {
		num, den := pow2(q)
		if k, want := q*1262611>>22, floorLog10(num, den); k != want {
			t.Fatalf("q=%d: k %d, want %d", q, k, want)
		}
		num3 := new(big.Int).Mul(num, big.NewInt(3))
		den4 := new(big.Int).Mul(den, big.NewInt(4))
		if k, want := (q*1262611-524031)>>22, floorLog10(num3, den4); q > -1074 && k != want {
			t.Fatalf("q=%d irregular: k %d, want %d", q, k, want)
		}
	}
	for e := minPow10; e <= maxPow10; e++ {
		// ⌊e log2 10⌋: the largest f with 2^f <= 10^e.
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		want := p.BitLen() - 1
		if e < 0 {
			want = -p.BitLen()
		}
		if got := e * 1741647 >> 19; got != want {
			t.Fatalf("e=%d: ⌊e log2 10⌋ %d, want %d", e, got, want)
		}
		if g := pow10Table()[e-minPow10]; g[0]>>63 != 1 {
			t.Fatalf("e=%d: g = %#x%016x is below 2^127", e, g[0], g[1])
		}
	}
}

// BenchmarkAppendJSONFloat formats values like an observe's verdicts:
// process values and magnitudes of a few units.
func BenchmarkAppendJSONFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	vs := make([]float64, 4096)
	for i := range vs {
		vs[i] = rng.NormFloat64() * 2
	}
	buf := make([]byte, 0, 32*len(vs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, v := range vs {
			buf = appendJSONFloat(buf, v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/value")
}

// BenchmarkDecodeFitBody decodes a /v1/fit body of 8 192 pixels × 114
// dates written with four decimals, as the benchmark's fit sends, the
// way handleFit does: decodeBody reads the body and decodes its rows into
// a pooled decodeBuf, which goes back to the pool after each decode. Its
// B/op is what a warm server allocates to decode the body.
func BenchmarkDecodeFitBody(b *testing.B) {
	const px, dates = 8192, 114
	rng := rand.New(rand.NewSource(14))
	var body bytes.Buffer
	body.WriteString(`{"history":114,"pixels":[`)
	for i := 0; i < px; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		row := make(Series, dates)
		for d := range row {
			if rng.Float64() < 0.3 {
				row[d] = math.NaN()
			} else {
				row[d] = math.Round(rng.NormFloat64()*1e4) / 1e4
			}
		}
		wire, _ := row.MarshalJSON()
		body.Write(wire)
	}
	body.WriteString(`]}`)
	raw := body.Bytes()
	s := mustServer(b, Config{TraceDepth: -1})
	rd := bytes.NewReader(raw)
	r := httptest.NewRequest(http.MethodPost, "/v1/fit", rd)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		buf := s.getDecodeBuf()
		req, apiErr := decodeBody[FitHTTPRequest](r.Context(), s, r, buf)
		if apiErr != nil || len(req.Pixels) != px {
			b.Fatal("the fit body did not decode")
		}
		s.putDecodeBuf(buf)
	}
}
