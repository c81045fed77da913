package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"bfast/internal/core"
)

// TestSeriesWireCompat is the codec's contract: for any body, decoding
// into Series must accept exactly the inputs the stock []*float64
// encoding accepted, and produce bit-identical values (null <-> NaN).
func TestSeriesWireCompat(t *testing.T) {
	cases := []string{
		`[]`, `[ ]`, `[1]`, `[1,2,3]`, `[ 1 , 2 , 3 ]`,
		`[null]`, `[null,null]`, `[1,null,2]`, `[ null , 1.5 ]`,
		`[0.1,0.25,-3.5e2,1e-3,0,-0]`, `[1E5,1e+5,1e-5]`,
		`[1.7976931348623157e308,5e-324,-5e-324]`,
		`[0.30000000000000004,0.1234567890123456789]`,
		`[1e999]`, `[-1e999]`, // overflow: json maps to an error
		`null`,
		"[1,\n2,\t3]",
		// invalid inputs — both decoders must reject
		`[`, `]`, `[1,]`, `[,1]`, `[1,,2]`, `[01]`, `[+1]`, `[.5]`,
		`[1.]`, `[1e]`, `[1e+]`, `[-]`, `[--1]`, `[Inf]`, `[NaN]`,
		`[nul]`, `[nulll]`, `[true]`, `["1"]`, `[[1]]`, `[{}]`,
		`[0x1]`, `[1 2]`, `{}`, `1`, `"a"`, ``, `[1]]`,
	}
	for _, c := range cases {
		var want []*float64
		wantErr := json.Unmarshal([]byte(c), &want) != nil
		var got Series
		gotErr := json.Unmarshal([]byte(c), &got) != nil
		if wantErr != gotErr {
			t.Errorf("%q: stock err=%v, Series err=%v", c, wantErr, gotErr)
			continue
		}
		if wantErr {
			continue
		}
		if (want == nil) != (got == nil) || len(want) != len(got) {
			t.Errorf("%q: stock %v vs Series %v", c, want, got)
			continue
		}
		for i := range want {
			switch {
			case want[i] == nil:
				if !math.IsNaN(got[i]) {
					t.Errorf("%q[%d]: null must decode to NaN, got %v", c, i, got[i])
				}
			case math.Float64bits(*want[i]) != math.Float64bits(got[i]):
				t.Errorf("%q[%d]: %x vs %x", c, i, *want[i], got[i])
			}
		}
	}
}

func TestSeriesMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := make(Series, 300)
	for i := range s {
		if rng.Float64() < 0.3 {
			s[i] = math.NaN()
		} else {
			s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	// The bytes must match what the stock encoding produces for the
	// equivalent []*float64...
	ptrs := make([]*float64, len(s))
	for i := range s {
		if !math.IsNaN(s[i]) {
			ptrs[i] = &s[i]
		}
	}
	stock, err := json.Marshal(ptrs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, stock) {
		t.Fatalf("encodings differ:\n%s\n%s", raw, stock)
	}
	// ...and survive a round trip bit-identically.
	var back Series
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(s) {
		t.Fatalf("length %d vs %d", len(back), len(s))
	}
	for i := range s {
		if math.Float64bits(s[i]) != math.Float64bits(back[i]) {
			t.Fatalf("element %d: %x vs %x", i, s[i], back[i])
		}
	}
}

func TestSeriesMarshalRejectsInf(t *testing.T) {
	if _, err := json.Marshal(Series{math.Inf(1)}); err == nil {
		t.Fatal("expected an error for +Inf")
	}
	if raw, err := json.Marshal(Series(nil)); err != nil || string(raw) != "null" {
		t.Fatalf("nil series: %s, %v", raw, err)
	}
}

// decodeServer is the Server divergence decodes through; decodeBody
// reads only its body limit.
var decodeServer = &Server{cfg: Config{MaxBodyBytes: 1 << 20}}

// divergence decodes raw as a T through the stock decoder and through
// decodeBody, the path a handler takes: the single scan, or the stock
// decoder and packRows where the scan declines. It describes how they
// differ, or returns "" when they agree. When the scan accepts, the
// stock decoder must accept too and give the identical struct. Either
// way decodeBody must accept exactly what the stock decoder accepts, and
// the rows it returns must be consecutive views of its buffer holding
// the stock rows laid end to end.
func divergence[T any, P requestBody[T]](raw []byte) string {
	var stock T
	stockErr := stockDecode(raw, &stock)

	buf := new(decodeBuf)
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(raw))
	got, apiErr := decodeBody[T, P](req.Context(), decodeServer, req, buf)
	switch {
	case stockErr != nil && apiErr == nil:
		return fmt.Sprintf("%T: decodeBody accepted what the stock decoder rejects (%v)", stock, stockErr)
	case stockErr != nil:
		if want := "bad request body: " + stockErr.Error(); apiErr.Message != want {
			return fmt.Sprintf("%T: decodeBody says %q, the stock decoder %q", stock, apiErr.Message, want)
		}
		return ""
	case apiErr != nil:
		return fmt.Sprintf("%T: decodeBody rejected what the stock decoder accepts: %s", stock, apiErr.Message)
	}
	if msg := packingDiverges(*P(got).rowField(), buf.vals, *P(&stock).rowField()); msg != "" {
		return fmt.Sprintf("%T: %s", stock, msg)
	}

	var fast T
	if _, ok := parseObject(raw, nil, P(&fast).field); !ok {
		return "" // decodeBody took the stock decoder's struct
	}
	unNaN(reflect.ValueOf(&fast))
	unNaN(reflect.ValueOf(&stock))
	if !reflect.DeepEqual(fast, stock) {
		return fmt.Sprintf("%T:\nfast  %+v\nstock %+v", fast, fast, stock)
	}
	return ""
}

// packingDiverges describes how rows fail to be consecutive views of
// vals, each clipped to its length, that hold want's rows bit for bit
// (NaN and -0 included), null rows staying null; "" when they do.
func packingDiverges(rows []Series, vals []float64, want []Series) string {
	if len(rows) != len(want) {
		return fmt.Sprintf("%d rows, the stock decoder %d", len(rows), len(want))
	}
	off := 0
	for i, row := range rows {
		if len(row) != len(want[i]) || (row == nil) != (want[i] == nil) {
			return fmt.Sprintf("row %d is %v, the stock decoder's %v", i, row, want[i])
		}
		if len(row) == 0 {
			continue
		}
		if off+len(row) > len(vals) || &row[0] != &vals[off] {
			return fmt.Sprintf("row %d is not the view of the buffer at %d", i, off)
		}
		if cap(row) != len(row) {
			return fmt.Sprintf("row %d has capacity %d past its length %d", i, cap(row), len(row))
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(want[i][j]) {
				return fmt.Sprintf("row %d value %d is %x, the stock decoder's %x", i, j, v, want[i][j])
			}
		}
		off += len(row)
	}
	return ""
}

// divergesFromStock checks raw against the stock decoder as each of the
// three request bodies: detect/trace/batch, fit and observe.
func divergesFromStock(raw []byte) string {
	for _, d := range []func([]byte) string{
		divergence[DetectRequest], divergence[FitHTTPRequest], divergence[ObserveHTTPRequest],
	} {
		if msg := d(raw); msg != "" {
			return msg
		}
	}
	return ""
}

// unNaN replaces every NaN series value under v with a sentinel outside
// any test body (NaN != NaN defeats DeepEqual), leaving all else as is.
func unNaN(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			unNaN(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			unNaN(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			unNaN(v.Index(i))
		}
	case reflect.Float64:
		if math.IsNaN(v.Float()) {
			v.SetFloat(-12345e67)
		}
	}
}

// TestFastParserNeverDiverges pins the fast path's safety property: on
// any input it either produces exactly the stock decoder's result or
// declines so the fallback runs. It must never accept a body the stock
// decoder rejects, and never decode different values.
func TestFastParserNeverDiverges(t *testing.T) {
	cases := []string{
		`{}`, `{ }`,
		`{"series":[1,null,2],"history":5}`,
		`{"pixels":[[1,2],[3,null]],"history":1}`,
		`{"pixels":[],"history":1}`,
		`{"pixels":null,"history":1}`,
		`{"series":null,"history":1}`,
		`{"series":[],"history":0}`,
		`{"history":5,"harmonics":2,"frequency":23.5,"hfrac":0.25,"level":0.01,"process":"cusum","noTrend":true}`,
		`{"n":3,"series":[1,2,3],"history":2}`,
		`{"n":null,"harmonics":null,"frequency":null,"hfrac":null,"level":null,"process":null,"noTrend":null,"history":1}`,
		`{"noTrend":false,"history":1}`,
		`{"history":-3}`, `{"n":-1,"history":1}`,
		"{\n  \"series\" : [ 1 , null ] ,\n  \"history\" : 2\n}",
		`{"history":2,"history":7}`, // duplicate: last wins
		`{"process":"cusum","process":null}`, `{"noTrend":true,"noTrend":null}`,
		`{"harmonics":2,"harmonics":null}`, `{"pixels":[[1]],"pixels":null}`,
		`{"series":[0.30000000000000004,1e-7,1.7976931348623157e308],"history":1}`,
		`{"pixels":[null],"history":1}`, `{"pixels":[[null,null],[]],"history":1}`,
		// fit bodies
		`{"pixels":[[1,2,null],[4,5,6]],"history":3,"capacity":6}`,
		`{"pixels":[[1]],"history":1,"capacity":0,"harmonics":1,"process":"mosum","noTrend":false}`,
		`{"capacity":-5,"history":2}`, `{"capacity":8,"capacity":9}`,
		`{"capacity":null}`, `{"capacity":1.5}`, `{"capacity":"8"}`,
		`{"pixels":[[1,2]],"history":2,"n":2}`, `{"pixels":[[1,2]],"history":2,"series":[1]}`,
		// observe bodies
		`{"session":"s-0123456789abcdef","dates":[[1,null,3]]}`,
		`{"dates":[[1],[2],[null]],"session":"s-1"}`,
		`{"session":"","dates":[]}`, `{"session":null,"dates":null}`,
		`{"session":"a","session":"b"}`, `{"session":"a","session":null}`,
		`{"dates":[[1]],"dates":[[2,3]]}`, `{"dates":[null,[1]]}`,
		`{"session":"s-\u0031"}`, `{"session":"s\"1"}`, `{"session":"s\\1"}`,
		`{"session":"s-1\n"}`, "{\"session\":\"s-\x01\"}", `{"session":"é"}`,
		`{"session":"s-1","dates":[[1]]}{}`, `{"session":"s-1","dates":[[1]]} x`,
		`{"session":5}`, `{"session":["s"]}`, `{"dates":[1,2]}`, `{"dates":"x"}`,
		`{"session":"s-1","dates":[[1]],"history":3}`, `{"Session":"s-1"}`,
		// repeated row keys: the last array wins, decoded over the first
		`{"pixels":[[1,2],[3,4]],"pixels":[[5]],"history":1}`,
		`{"pixels":[[1]],"pixels":[[-0,null],[],null,[2e-308]],"history":1}`,
		`{"dates":[[1,2,3,4,5,6]],"dates":[[7],[8]]}`, `{"dates":[[1]],"dates":null,"dates":[[2]]}`,
		`{"pixels":[[1,2]],"pix\u0065ls":[[3,-0]],"history":1}`,
		// bodies the fast path must hand to the fallback, which then
		// reproduces today's accept/reject decision exactly
		`{"unknown":1}`, `{"History":5}`, `{"SERIES":[1]}`,
		`{"history":5}garbage`, `{"history":5} `, `{"history":5.0}`,
		`{"history":5e0}`, `{"history":"5"}`, `{"history":1e99}`,
		`{"series":[1,]}`, `{"series":[01],"history":1}`,
		`{"series":"not an array"}`, `{"series":[1e999],"history":1}`,
		`{"process":"mo\u0073um","history":1}`, `{"process":5}`,
		`{"noTrend":"true"}`, `{"n":2.5}`, `{`, `[]`, `null`, ``, `42`,
		`{"series":[1] "history":2}`, `{"series":[1],,"history":2}`,
		`{,"history":1}`, `{"history":1,}`, `{"pixels":[[1,,,,,,,,2]]}`,
	}
	for _, c := range cases {
		if msg := divergesFromStock([]byte(c)); msg != "" {
			t.Errorf("%q: %s", c, msg)
		}
	}
}

// TestFastParserFuzzAgainstStock hammers the divergence property with
// random bodies, mutations included.
func TestFastParserFuzzAgainstStock(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		raw := randomBody(rng)
		if msg := divergesFromStock(raw); msg != "" {
			t.Fatalf("%q: %s", raw, msg)
		}
	}
}

func randomBody(rng *rand.Rand) []byte {
	var b bytes.Buffer
	b.WriteByte('{')
	fields := []string{
		"series", "pixels", "dates", "n", "history", "capacity", "harmonics", "frequency",
		"hfrac", "level", "process", "session", "noTrend", "bogus",
	}
	nf := rng.Intn(4)
	for i := 0; i < nf; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		f := fields[rng.Intn(len(fields))]
		b.WriteString(`"` + f + `":`)
		switch f {
		case "series":
			writeRandomArray(rng, &b)
		case "pixels", "dates":
			b.WriteByte('[')
			for j := rng.Intn(3); j > 0; j-- {
				writeRandomArray(rng, &b)
				if j > 1 {
					b.WriteByte(',')
				}
			}
			b.WriteByte(']')
		case "process", "session":
			b.WriteString([]string{`"cusum"`, `"s-0a1b"`, `"s-\u0030"`, `""`, "null"}[rng.Intn(5)])
		case "noTrend":
			b.WriteString([]string{"true", "false", "null"}[rng.Intn(3)])
		default:
			b.WriteString([]string{"1", "-2", "300", "null", "0.5", "1e3"}[rng.Intn(6)])
		}
	}
	b.WriteByte('}')
	raw := b.Bytes()
	// Mutate some bodies to exercise reject paths.
	if rng.Intn(3) == 0 && len(raw) > 2 {
		raw[rng.Intn(len(raw))] = byte(" ,:[]{}01.e\"x\\"[rng.Intn(14)])
	}
	return raw
}

func writeRandomArray(rng *rand.Rand, b *bytes.Buffer) {
	if rng.Intn(8) == 0 {
		b.WriteString("null")
		return
	}
	b.WriteByte('[')
	for j := rng.Intn(4); j > 0; j-- {
		switch rng.Intn(3) {
		case 0:
			b.WriteString("null")
		case 1:
			b.WriteString("-0.123")
		default:
			b.WriteString("4.5e-2")
		}
		if j > 1 {
			b.WriteByte(',')
		}
	}
	b.WriteByte(']')
}

// TestObserveDecodeAllocatesNoFloats: the fast path decodes a one-date
// observe body of 8 192 values — the date-major body of near-real-time
// monitoring — into the buffer it is handed, so with a warm buffer an
// observe decode allocates no float storage: only the parser, the
// session string and the dates slice.
func TestObserveDecodeAllocatesNoFloats(t *testing.T) {
	const px = 8192
	rng := rand.New(rand.NewSource(5))
	row := make(Series, px)
	for i := range row {
		if rng.Float64() < 0.3 {
			row[i] = math.NaN()
		} else {
			row[i] = math.Round(rng.Float64()*1e4) / 1e4
		}
	}
	wire, err := row.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := append(append([]byte(`{"session":"s-0123456789abcdef","dates":[`), wire...), "]}"...)
	var req ObserveHTTPRequest
	vals, ok := parseObject(body, nil, req.field)
	if !ok || len(req.Dates) != 1 || len(req.Dates[0]) != px || &req.Dates[0][0] != &vals[0] {
		t.Fatalf("fast path declined or misread the body: %d dates", len(req.Dates))
	}
	if n := testing.AllocsPerRun(20, func() { parseObject(body, vals, req.field) }); n > 3 {
		t.Fatalf("decode: %v allocations, want at most 3", n)
	}
	if got := decodeBytes(body, vals); got >= 256 {
		t.Fatalf("decode: %d bytes per body into a warm buffer, want under 256", got)
	}
	// A row of bare commas is invalid, but is sized before the scan finds
	// out: the cap keeps that at four times the body, not eight.
	commas := append(append([]byte(`{"dates":[[`), bytes.Repeat([]byte{','}, 1<<16)...), "]]}"...)
	if got := decodeBytes(commas, nil); got > 4*int64(len(commas))+1024 {
		t.Fatalf("comma body: %d bytes for a %d-byte body", got, len(commas))
	}
}

// decodeBytes is the heap bytes parseObject allocates per decode of body
// as an observe request into vals.
func decodeBytes(body []byte, vals []float64) int64 {
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var req ObserveHTTPRequest
		parseObject(body, vals, req.field)
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / runs
}

// resultJSON is the reflection-path oracle for appendResultJSON: the
// DetectResponse encoding/json renders for one pixel.
func resultJSON(res core.Result) DetectResponse {
	out := DetectResponse{
		Status:       res.Status.String(),
		BreakIndex:   res.BreakIndex,
		ValidHistory: res.ValidHistory,
		Valid:        res.Valid,
	}
	if res.Status == core.StatusOK {
		m, s := res.MosumMean, res.Sigma
		out.Magnitude, out.Sigma = &m, &s
	}
	return out
}

// TestAppendResultJSONMatchesEncoder pins the hand-built /v1/detect and
// /v1/batch response bytes to what encoding/json writes for the same
// results, trailing newline included.
func TestAppendResultJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	results := []core.Result{
		{Status: core.StatusOK, BreakIndex: 42, MosumMean: -0.5, Sigma: 0.125, ValidHistory: 100, Valid: 180},
		{Status: core.StatusOK, BreakIndex: -1, MosumMean: 1e-7, Sigma: 1e20, ValidHistory: 7, Valid: 7},
		{Status: core.StatusInsufficientHistory, BreakIndex: -1, ValidHistory: 3, Valid: 5},
		{Status: core.StatusSingular, BreakIndex: -1, ValidHistory: 30, Valid: 60},
	}
	for i := 0; i < 200; i++ {
		results = append(results, core.Result{
			Status:       core.StatusOK,
			BreakIndex:   rng.Intn(500) - 1,
			MosumMean:    rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15)),
			Sigma:        math.Abs(rng.NormFloat64()),
			ValidHistory: rng.Intn(1000),
			Valid:        rng.Intn(1000),
		})
	}
	for _, res := range results {
		want, err := json.Marshal(resultJSON(res))
		if err != nil {
			t.Fatal(err)
		}
		got := appendResultJSON(nil, res)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v:\ngot  %s\nwant %s", res, got, want)
		}
		checkReply(t, resultReply(res), resultJSON(res))
	}
	oracle := make([]DetectResponse, len(results))
	for i, res := range results {
		oracle[i] = resultJSON(res)
	}
	checkReply(t, batchReply(results), oracle)
	checkReply(t, batchReply(results[:1]), oracle[:1])
	mixed := rangeResults()
	for _, n := range rangeSizes {
		batch := make(batchReply, n)
		oracle := make([]DetectResponse, n)
		for i := range batch {
			batch[i] = mixed[i%len(mixed)]
			oracle[i] = resultJSON(batch[i])
		}
		checkReply(t, batch, oracle)
	}
}

// rangeResults mixes every status with the magnitudes that exercise the
// formatter: both 'e'-format boundaries, negative zero, a subnormal,
// and the NaN and ±Inf a result without StatusOK carries but never
// renders.
func rangeResults() []core.Result {
	statuses := []core.Status{
		core.StatusOK, core.StatusInsufficientHistory, core.StatusSingular,
		core.StatusNoMonitoringData, core.StatusNoVariance,
	}
	finite := []float64{1e-7, -1e-7, 1e21, -1e21, math.Copysign(0, -1), 0.1, 5e-324, 123456789.125}
	omitted := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	var out []core.Result
	for si, st := range statuses {
		vals := finite
		if st != core.StatusOK {
			vals = append(omitted, finite...)
		}
		for vi, v := range vals {
			out = append(out, core.Result{
				Status: st, BreakIndex: []int{-1, 0, 7, 113}[(si+vi)%4],
				MosumMean: v, Sigma: vals[(vi+1)%len(vals)], ValidHistory: vi, Valid: 3 * vi,
			})
		}
	}
	return out
}

// checkReply requires writeJSON to render reply as the same bytes
// encoding/json writes for oracle.
func checkReply(t *testing.T, reply jsonAppender, oracle any) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(oracle); err != nil {
		t.Fatal(err)
	}
	if got := appendReply(nil, reply); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%T one-range bytes differ:\n got %s\nwant %s", reply, got, want.Bytes())
	}
	rec := httptest.NewRecorder()
	if err := writeJSON(context.Background(), rec, reply); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("%T bytes differ:\n got %s\nwant %s", reply, rec.Body.Bytes(), want.Bytes())
	}
}

// TestArrayShapeStopsAtItsClose: the walk that sizes the row buffer and
// the row slice counts the array it sizes and nothing after it. Stopping
// at the array's own ']' is what keeps a body of many repeated row keys
// linear to scan, and a null row or a space may not carry the walk past
// it.
func TestArrayShapeStopsAtItsClose(t *testing.T) {
	for _, tc := range []struct {
		rest       string // the body after the array's '['
		vals, rows int
	}{
		{`[1,2],[3]]}`, 3, 2},
		{` [ 1 , 2 ] , null ]}`, 3, 2}, // a null row's comma overcounts by one
		{`null,[1]]}`, 2, 2},
		{`]}`, 0, 0},
		{`[]]}`, 0, 1},
		{`null],"pixels":[[1,1,1,1,1,1,1,1]]}`, 1, 1},
		{`[1,2]],"series":[1,1,1,1,1,1,1,1]}`, 2, 1},
		{`[,,,,]]}`, 2, 1},
		{`[1],x,[2]]}`, 1, 1},
		{`[1,2`, 1, 0}, // truncated: the parse declines it
	} {
		p := reqParser{in: []byte("[" + tc.rest), pos: 1}
		if vals, rows := p.arrayShape(); vals != tc.vals || rows != tc.rows {
			t.Errorf("%q: %d values in %d rows, want %d in %d", tc.rest, vals, rows, tc.vals, tc.rows)
		}
	}
}
