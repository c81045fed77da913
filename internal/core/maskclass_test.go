package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"bfast/internal/leakcheck"
	"bfast/internal/series"
)

// Mask-class sharing must be invisible except in speed: every test here
// holds DetectBatch to scalar Detect, bit for bit, on scenes built so
// that pixels share history masks.

// scalarResults is the oracle: Detect on every pixel.
func scalarResults(t *testing.T, b *Batch, opt Options) []Result {
	t.Helper()
	x, err := DesignFor(opt, b.N)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Result, b.M)
	for i := range out {
		if out[i], err = Detect(b.Row(i), x, opt); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// maskedScene builds m pixels of n dates with individual values (stable,
// breaking up and breaking down, in turn) and punches masks[pick(i)]
// into pixel i: masks[j][t] true = date t missing.
func maskedScene(rng *rand.Rand, m, n int, masks [][]bool, pick func(i int) int) *Batch {
	y := make([]float64, m*n)
	for i := 0; i < m; i++ {
		breakAt, shift := -1, 0.0
		if i%3 != 0 {
			breakAt, shift = n/2+rng.Intn(n/4), 0.7*float64(i%3*2-3)
		}
		row := synthSeries(rng, n, 3, 23, 0.03, breakAt, shift, 0)
		for t, miss := range masks[pick(i)] {
			if miss {
				row[t] = math.NaN()
			}
		}
		copy(y[i*n:(i+1)*n], row)
	}
	b, err := NewBatch(m, n, y)
	if err != nil {
		panic(err)
	}
	return b
}

func randomMasks(rng *rand.Rand, count, n int, nanFrac float64) [][]bool {
	masks := make([][]bool, count)
	for j := range masks {
		masks[j] = make([]bool, n)
		for t := range masks[j] {
			masks[j][t] = rng.Float64() < nanFrac
		}
	}
	return masks
}

// distinctHistoryMasks counts, by brute force, the distinct history masks
// among the pixels with at least minHist valid history observations.
func distinctHistoryMasks(b *Batch, opt Options) int {
	seen := map[string]bool{}
	for i := 0; i < b.M; i++ {
		key := make([]byte, opt.History)
		valid := 0
		for t, v := range b.Row(i)[:opt.History] {
			if !math.IsNaN(v) {
				key[t] = 1
				valid++
			}
		}
		if valid >= opt.minHist() {
			seen[string(key)] = true
		}
	}
	return len(seen)
}

func classCount(b *Batch, opt Options) int {
	mask := series.NewBatchMask(b.M, b.N, b.Y)
	return len(groupByHistoryMask(mask, opt.History, opt.minHist(), hashWords).rep)
}

// TestClassSharingMatchesScalar: duplicated masks under different values,
// drawn at random so classes straddle tile and steal-unit boundaries,
// with singleton classes mixed in; every tile width and worker count,
// ragged last tiles included.
func TestClassSharingMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	const N, n = 230, 115 // N % 64 != 0 and n % 64 != 0: tail words in play
	opt := defaultTestOpts(n)
	for _, sc := range []struct {
		name  string
		m     int
		masks int
		pick  func(rng *rand.Rand, masks int) func(int) int
	}{
		{"random-draw", 203, 9, func(rng *rand.Rand, k int) func(int) int {
			return func(int) int { return rng.Intn(k) }
		}},
		{"runs-of-13", 130, 10, func(_ *rand.Rand, k int) func(int) int {
			return func(i int) int { return i / 13 % k }
		}},
		{"half-singletons", 67, 40, func(_ *rand.Rand, k int) func(int) int {
			return func(i int) int { // masks 0..32 once each, the rest share 33..39
				if i < 33 {
					return i
				}
				return 33 + i%7
			}
		}},
		{"one-class", 50, 1, func(_ *rand.Rand, _ int) func(int) int {
			return func(int) int { return 0 }
		}},
	} {
		b := maskedScene(rng, sc.m, N, randomMasks(rng, sc.masks, N, 0.4), sc.pick(rng, sc.masks))
		want := scalarResults(t, b, opt)
		for _, tw := range []int{1, 4, 8, 64} {
			for _, workers := range []int{1, 2, 5} {
				got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: workers, TileWidth: tw})
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, want, got, fmt.Sprintf("%s/T=%d/w=%d", sc.name, tw, workers))
			}
		}
		if got, want := classCount(b, opt), distinctHistoryMasks(b, opt); got != want {
			t.Fatalf("%s: %d classes, %d distinct history masks", sc.name, got, want)
		}
	}
}

// TestClassSharingMetamorphic: transformations that leave every pixel's
// (history mask, valid values) alone must leave every Result bit and the
// class count alone — other NaN encodings under the masked positions,
// a pixel permutation, and splitting the batch in two.
func TestClassSharingMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	const M, N, n = 150, 300, 150
	opt := defaultTestOpts(n)
	b := maskedScene(rng, M, N, randomMasks(rng, 12, N, 0.5), func(int) int { return rng.Intn(12) })
	cfg := BatchConfig{Workers: 2, TileWidth: 8}
	base, err := DetectBatch(context.Background(), b, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, scalarResults(t, b, opt), base, "base")
	classes := classCount(b, opt)

	t.Run("nan-payloads", func(t *testing.T) {
		nans := []uint64{0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, 0xffffffffffffffff, 0x7ff4000000abcdef}
		y := append([]float64(nil), b.Y...)
		for i, v := range y {
			if math.IsNaN(v) {
				y[i] = math.Float64frombits(nans[rng.Intn(len(nans))])
			}
		}
		b2, _ := NewBatch(M, N, y)
		got, err := DetectBatch(context.Background(), b2, opt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, base, got, "rewritten NaNs")
		if c := classCount(b2, opt); c != classes {
			t.Fatalf("class count %d, was %d", c, classes)
		}
	})
	t.Run("permutation", func(t *testing.T) {
		perm := rng.Perm(M)
		y := make([]float64, M*N)
		want := make([]Result, M)
		for to, from := range perm {
			copy(y[to*N:(to+1)*N], b.Row(from))
			want[to] = base[from]
		}
		b2, _ := NewBatch(M, N, y)
		got, err := DetectBatch(context.Background(), b2, opt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, "permuted")
		if c := classCount(b2, opt); c != classes {
			t.Fatalf("class count %d, was %d", c, classes)
		}
	})
	t.Run("split", func(t *testing.T) {
		for _, cut := range []int{1, 7, 75, 149} {
			var got []Result
			for _, r := range [][2]int{{0, cut}, {cut, M}} {
				part, _ := NewBatch(r[1]-r[0], N, b.Y[r[0]*N:r[1]*N])
				res, err := DetectBatch(context.Background(), part, opt, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, res...)
				if c, want := classCount(part, opt), distinctHistoryMasks(part, opt); c != want {
					t.Fatalf("cut %d: part has %d classes, %d distinct masks", cut, c, want)
				}
			}
			assertBitIdentical(t, base, got, fmt.Sprintf("split at %d", cut))
		}
	})
}

// TestClassMembershipIsByWords: with every pixel hashing to the same
// slot, the partition must still be the exact one — the word comparison
// decides membership, the hash only orders the probe.
func TestClassMembershipIsByWords(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	const M, N, n = 120, 200, 100
	opt := defaultTestOpts(n)
	b := maskedScene(rng, M, N, randomMasks(rng, 25, N, 0.45), func(int) int { return rng.Intn(25) })
	mask := series.NewBatchMask(b.M, b.N, b.Y)
	real := groupByHistoryMask(mask, n, opt.minHist(), hashWords)
	forced := groupByHistoryMask(mask, n, opt.minHist(), func([]uint64, uint64) uint64 { return 7 })
	if len(forced.rep) != distinctHistoryMasks(b, opt) {
		t.Fatalf("constant hash: %d classes, %d distinct masks", len(forced.rep), distinctHistoryMasks(b, opt))
	}
	if len(real.rep) != len(forced.rep) {
		t.Fatalf("%d classes under the real hash, %d under a constant one", len(real.rep), len(forced.rep))
	}
	// Classes are numbered in order of first appearance under any hash.
	for px := range real.of {
		if real.of[px] != forced.of[px] {
			t.Fatalf("pixel %d: class %d under the real hash, %d under a constant one", px, real.of[px], forced.of[px])
		}
	}
	for c := range real.rep {
		if real.rep[c] != forced.rep[c] || real.size[c] != forced.size[c] {
			t.Fatalf("class %d: rep/size %d/%d vs %d/%d", c, real.rep[c], real.size[c], forced.rep[c], forced.size[c])
		}
	}
	// Two pixels in one class have equal history bits, two in different
	// classes do not.
	for a := 0; a < M; a++ {
		for c := a + 1; c < M; c++ {
			if forced.of[a] < 0 || forced.of[c] < 0 {
				continue
			}
			same := true
			for d := 0; d < n; d++ {
				if math.IsNaN(b.Row(a)[d]) != math.IsNaN(b.Row(c)[d]) {
					same = false
					break
				}
			}
			if same != (forced.of[a] == forced.of[c]) {
				t.Fatalf("pixels %d,%d: equal history masks %v, same class %v", a, c, same, forced.of[a] == forced.of[c])
			}
		}
	}
}

// TestClassStatusIsShared: an exactly singular class (only dates where
// the cosines equal the intercept), a near-singular one (ten consecutive
// dates for eight regressors) and one below MinValidHistory: every
// member gets the status scalar Detect gives it.
func TestClassStatusIsShared(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	const N, n = 460, 230
	opt := defaultTestOpts(n)
	opt.MinValidHistory = 9
	only := func(keep func(t int) bool) []bool {
		m := make([]bool, N)
		for t := 0; t < n; t++ {
			m[t] = !keep(t)
		}
		for t := n; t < N; t++ {
			m[t] = rng.Float64() < 0.3
		}
		return m
	}
	masks := [][]bool{
		only(func(t int) bool { return (t+1)%23 == 0 }),       // 10 dates, all at phase 0
		only(func(t int) bool { return t >= 100 && t < 110 }), // 10 adjacent dates
		only(func(t int) bool { return t%29 == 0 }),           // 8 dates: ≥ K, < MinValidHistory
		only(func(t int) bool { return t%2 == 0 }),            // healthy
		only(func(t int) bool { return t%3 != 0 }),            // healthy
	}
	b := maskedScene(rng, 61, N, masks, func(i int) int { return i % len(masks) })
	want := scalarResults(t, b, opt)
	statuses := map[int]Status{}
	for i, r := range want {
		c := i % len(masks)
		if prev, ok := statuses[c]; ok && prev != r.Status && c < 3 {
			t.Fatalf("scalar Detect disagrees with itself inside class %d: %v vs %v", c, prev, r.Status)
		}
		statuses[c] = r.Status
	}
	if statuses[0] != StatusSingular {
		t.Fatalf("phase-0 class: scalar status %v, want the scene to exercise StatusSingular", statuses[0])
	}
	if statuses[2] != StatusInsufficientHistory {
		t.Fatalf("sparse class: scalar status %v, want StatusInsufficientHistory", statuses[2])
	}
	t.Logf("near-singular class: scalar status %v", statuses[1])
	for _, tw := range []int{1, 4, 8, 64} {
		for _, workers := range []int{1, 3} {
			got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: workers, TileWidth: tw})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, want, got, fmt.Sprintf("T=%d/w=%d", tw, workers))
		}
	}
}

// TestClassKeyIsTheHistoryPeriod: pixels share when their first History
// bits agree — whatever their monitoring masks, including the bits of
// the last history word at or beyond History — and do not when bit
// History−1 differs.
func TestClassKeyIsTheHistoryPeriod(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	const N, n = 200, 100 // history ends inside word 1: bits 36.. of it are monitoring dates
	opt := defaultTestOpts(n)
	hist := randomMasks(rng, 1, N, 0.3)[0]
	hist[n-1] = false
	variant := func(flipLastHistory bool, monFrac float64) []bool {
		m := append([]bool(nil), hist...)
		m[n-1] = flipLastHistory
		for t := n; t < N; t++ {
			m[t] = rng.Float64() < monFrac
		}
		return m
	}
	masks := [][]bool{
		variant(false, 0), variant(false, 0.5), variant(false, 0.9), // one class
		variant(true, 0), variant(true, 0.5), // another: bit History−1 differs
	}
	masks[1][n], masks[2][n] = true, false // bit History of the last history word differs inside class 0
	b := maskedScene(rng, 40, N, masks, func(i int) int { return i % len(masks) })
	mask := series.NewBatchMask(b.M, b.N, b.Y)
	g := groupByHistoryMask(mask, n, opt.minHist(), hashWords)
	if len(g.rep) != 2 {
		t.Fatalf("%d classes, want 2", len(g.rep))
	}
	for px, c := range g.of {
		if want := int32(px % len(masks) / 3); c != want {
			t.Fatalf("pixel %d (mask %d) in class %d, want %d", px, px%len(masks), c, want)
		}
	}
	want := scalarResults(t, b, opt)
	for _, tw := range []int{4, 8} {
		got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 2, TileWidth: tw})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, fmt.Sprintf("T=%d", tw))
	}
}

// countdownCtx reports context.Canceled from its (left+1)-th Err call on:
// the scheduler polls Err before every steal unit, so sweeping left walks
// the cancellation point through the mask sweep, the class pass and the
// tile loop.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestClassSharingCancellation: a context cancelled before the call or
// anywhere inside it yields either the complete, correct results or
// (nil, context.Canceled) — never a partial slice — and leaves no
// goroutine behind.
func TestClassSharingCancellation(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(145))
	const M, N, n = 400, 160, 80
	opt := defaultTestOpts(n)
	b := maskedScene(rng, M, N, randomMasks(rng, 30, N, 0.4), func(int) int { return rng.Intn(30) })
	cfg := BatchConfig{Workers: 3, TileWidth: 8}
	want, err := DetectBatch(context.Background(), b, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, completed := 0, 0
	for left := int64(0); left < 120; left += 3 {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(left)
		got, err := DetectBatch(ctx, b, opt, cfg)
		switch {
		case errors.Is(err, context.Canceled):
			cancelled++
			if got != nil {
				t.Fatalf("left=%d: results returned with context.Canceled", left)
			}
		case err != nil:
			t.Fatalf("left=%d: %v", left, err)
		default:
			completed++
			assertBitIdentical(t, want, got, fmt.Sprintf("left=%d", left))
		}
	}
	if cancelled == 0 || completed == 0 {
		t.Fatalf("sweep saw %d cancelled and %d completed calls; want both", cancelled, completed)
	}
}

// TestPooledScratchCarriesNothingOver runs two unrelated scenes of one
// shape back to back through one pooled scratch, so the second scene's
// tiles are computed over whatever the first left in the buffers, and
// compares with the same call on buffers nobody has used.
func TestPooledScratchCarriesNothingOver(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	const M, N, n = 45, 180, 90
	opt := defaultTestOpts(n)
	first := randomBatch(rng, M, N, 0.2)
	second := maskedScene(rng, M, N, randomMasks(rng, 6, N, 0.6), func(i int) int { return i % 6 })
	cfg := BatchConfig{Workers: 1, TileWidth: 8}
	key := scratchKey{opt.K(), N, 8}

	tileScratchPools.Delete(key)
	fresh, err := DetectBatch(context.Background(), second, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, scalarResults(t, second, opt), fresh, "fresh scratch vs scalar")

	// A sync.Pool may drop what it is given (it does at random under
	// -race), so a round counts only when both calls demonstrably ran on
	// the scratch planted here: Gather leaves its lane map in data.Idx.
	for attempt := 0; attempt < 50; attempt++ {
		tileScratchPools.Delete(key)
		s := newTileScratch(key.k, key.n, key.t)
		putTileScratch(key, s)
		if _, err := DetectBatch(context.Background(), first, opt, cfg); err != nil {
			t.Fatal(err)
		}
		if s.data.Idx == nil {
			continue
		}
		s.data.Idx = nil
		reused, err := DetectBatch(context.Background(), second, opt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.data.Idx == nil {
			continue
		}
		assertBitIdentical(t, fresh, reused, "pooled scratch")
		return
	}
	t.Fatal("the pool never handed the planted scratch to both calls")
}
