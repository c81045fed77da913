package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// TestDenseBodyAllocs: a dense /v1/batch or /v1/fit body — one-digit
// values, the most values JSON carries per byte — costs a cold server at
// most 10× its size in allocation (TotalAlloc across ServeHTTP, the
// reply discarded): the body and its growth (2×), 8 B per value (4×),
// and what detection or the fit allocates. Bodies of 1 and 8 MiB, and
// 32 MiB unless -short. The server has a state directory, as a durable
// NRT deployment does: the fit encodes its session's base snapshot
// (about 1.1× the body here) and writes it out. Without one the
// in-memory store also keeps a copy of that snapshot, another 1.1×.
func TestDenseBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory and pool drops distort TotalAlloc")
	}
	sizes := []int{1 << 20, 8 << 20, 32 << 20}
	if testing.Short() {
		sizes = sizes[:2]
	}
	const history, n = 256, 512
	for _, size := range sizes {
		for _, path := range []string{"/v1/batch", "/v1/fit"} {
			rowLen := n
			if path == "/v1/fit" {
				rowLen = history
			}
			body := denseBody(size, rowLen, path == "/v1/fit", history, n)
			s := mustServer(t, Config{TraceDepth: -1, NRT: NRTConfig{StateDir: t.TempDir()}})
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			w := &statusWriter{discardWriter: discardWriter{h: http.Header{}}}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.ServeHTTP(w, req)
			runtime.ReadMemStats(&after)
			if w.code != http.StatusOK {
				t.Fatalf("%s, %d-byte body: status %d", path, len(body), w.code)
			}
			factor := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(body))
			if factor > 10 {
				t.Fatalf("%s, %d-byte body: allocated %.1f× the body, want at most 10×", path, len(body), factor)
			}
			t.Logf("%s, %d MiB body: %.2f× the body", path, size>>20, factor)
		}
	}
}

// denseBody is a /v1/batch body (or, with fit, a /v1/fit body) of about
// size bytes: rows of rowLen one-digit values.
func denseBody(size, rowLen int, fit bool, history, n int) []byte {
	rng := rand.New(rand.NewSource(int64(size)))
	rows := size / (2*rowLen + 1)
	b := make([]byte, 0, size+64)
	b = append(b, `{"pixels":[`...)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for d := 0; d < rowLen; d++ {
			if d > 0 {
				b = append(b, ',')
			}
			b = append(b, byte('0'+rng.Intn(10)))
		}
		b = append(b, ']')
	}
	b = append(b, `],"history":`...)
	b = strconv.AppendInt(b, int64(history), 10)
	if fit {
		b = append(b, `,"capacity":`...)
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, '}')
}

// statusWriter is a discardWriter that keeps the status code.
type statusWriter struct {
	discardWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) { w.code = code }

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

// TestSmallBatchAllocsFlatInLength: a warm, untraced 1-pixel /v1/batch
// call allocates the same, within 1 KiB, at n = 120 and at n = 1 200 —
// its row decodes into the pooled buffer, so no per-value storage is
// allocated per request. Requests are built before each measured round;
// each length keeps the least of three rounds, so a collection that
// empties the pools in one round does not count.
func TestSmallBatchAllocsFlatInLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	const runs = 2000
	perRequest := func(n int) uint64 {
		body, err := json.Marshal(batchBody(rand.New(rand.NewSource(int64(n))), 1, n))
		if err != nil {
			t.Fatal(err)
		}
		s := mustServer(t, Config{TraceDepth: -1})
		reqs := make([]*http.Request, runs)
		round := func() uint64 {
			for i := range reqs {
				reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
			}
			w := &statusWriter{discardWriter: discardWriter{h: http.Header{}}}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, r := range reqs {
				s.ServeHTTP(w, r)
			}
			runtime.ReadMemStats(&after)
			if w.code != http.StatusOK {
				t.Fatalf("n=%d: status %d", n, w.code)
			}
			return (after.TotalAlloc - before.TotalAlloc) / runs
		}
		round() // warm the pools and the design cache
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			least = min(least, round())
		}
		return least
	}
	short, long := perRequest(120), perRequest(1200)
	if d := int64(long) - int64(short); d > 1<<10 || d < -1<<10 {
		t.Fatalf("a 1-pixel call allocates %d B at n=120 but %d B at n=1200", short, long)
	}
	t.Logf("a 1-pixel call allocates %d B at n=120, %d B at n=1200", short, long)
}
