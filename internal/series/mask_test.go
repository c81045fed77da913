package series

import (
	"math"
	"math/rand"
	"testing"
)

func randSeries(rng *rand.Rand, n int, nanFrac float64) []float64 {
	y := make([]float64, n)
	for i := range y {
		if rng.Float64() < nanFrac {
			y[i] = math.NaN()
		} else {
			y[i] = rng.NormFloat64()
		}
	}
	return y
}

// maskOf builds the validity words of one series.
func maskOf(y []float64) []uint64 {
	words := make([]uint64, MaskWords(len(y)))
	FillMask(y, words)
	return words
}

func TestMaskAllNaNPixel(t *testing.T) {
	y := make([]float64, 100)
	for i := range y {
		y[i] = math.NaN()
	}
	words := maskOf(y)
	if CountBits(words, 100) != 0 || CountBits(words, 50) != 0 {
		t.Fatal("all-NaN pixel must count zero valid")
	}
	if CountBits(words, 1) == 1 || CountBits(words, 100) == 100 {
		t.Fatal("all-NaN pixel cannot be all-valid")
	}
	if idx := AppendValidIndices(nil, words, 100); len(idx) != 0 {
		t.Fatalf("all-NaN pixel lists valid dates %v", idx)
	}
	for _, w := range words {
		if w != 0 {
			t.Fatal("all-NaN pixel must have zero words")
		}
	}
}

func TestMaskAllValidFastPathWord(t *testing.T) {
	// 128 valid observations: both words must be the fast-path value.
	y := make([]float64, 128)
	for i := range y {
		y[i] = float64(i)
	}
	words := maskOf(y)
	for wi, w := range words {
		if w != AllValidWord {
			t.Fatalf("word %d = %#x, want all-ones fast-path word", wi, w)
		}
	}
	for _, n := range []int{1, 64, 70, 128} {
		if CountBits(words, n) != n {
			t.Fatalf("CountBits(%d) = %d on an all-valid pixel", n, CountBits(words, n))
		}
	}
	idx := AppendValidIndices(nil, words, 128)
	if len(idx) != 128 {
		t.Fatalf("AppendValidIndices lists %d dates, want 128", len(idx))
	}
	for k, q := range idx {
		if q != k {
			t.Fatalf("AppendValidIndices[%d] = %d on an all-valid pixel", k, q)
		}
	}
}

func TestMaskTailWordNotMultipleOf64(t *testing.T) {
	// N = 70: the second word covers only 6 bits; bits beyond N must be
	// zero and never counted.
	y := make([]float64, 70)
	for i := range y {
		y[i] = 1
	}
	y[69] = math.NaN()
	words := maskOf(y)
	if len(words) != 2 {
		t.Fatalf("expected 2 words for N=70, got %d", len(words))
	}
	if words[1]>>6 != 0 {
		t.Fatal("bits beyond N must be zero")
	}
	if c := CountBits(words, 70); c != 69 {
		t.Fatalf("CountBits(70) = %d, want 69", c)
	}
	if c := CountBits(words, 69); c != 69 {
		t.Fatalf("CountBits(69) = %d, want 69", c)
	}
	if idx := AppendValidIndices(nil, words, 70); len(idx) != 69 || idx[68] != 68 {
		t.Fatalf("AppendValidIndices tail handling wrong: %d dates", len(idx))
	}
	// CountBits with n inside the tail word.
	if CountBits(words, 66) != 66 {
		t.Fatalf("CountBits(66) = %d, want 66", CountBits(words, 66))
	}
}

func TestMaskMatchesFilterMissingRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 200, 321} {
		for _, frac := range []float64{0, 0.2, 0.5, 0.9, 1} {
			y := randSeries(rng, n, frac)
			hist := n / 2
			if hist == 0 {
				hist = n
			}
			f := FilterMissing(y, hist)
			words := maskOf(y)
			if c := CountBits(words, n); c != f.NValid {
				t.Fatalf("n=%d frac=%g: CountBits %d != %d", n, frac, c, f.NValid)
			}
			if c := CountBits(words, hist); c != f.NValidHist {
				t.Fatalf("n=%d frac=%g: prefix count %d != %d", n, frac, c, f.NValidHist)
			}
			if CountBits(words, n) != CountValid(y) {
				t.Fatal("mask count disagrees with CountValid")
			}
			for t2 := 0; t2 < n; t2++ {
				if valid := words[t2/64]&(1<<uint(t2%64)) != 0; valid == math.IsNaN(y[t2]) {
					t.Fatalf("bit %d wrong", t2)
				}
			}
			// AppendValidIndices must reproduce Filtered.Index.
			idx := AppendValidIndices(nil, words, n)
			if len(idx) != f.NValid {
				t.Fatalf("AppendValidIndices length %d != %d", len(idx), f.NValid)
			}
			for k := 0; k < f.NValid; k++ {
				if idx[k] != f.Index[k] {
					t.Fatalf("index %d: %d != %d", k, idx[k], f.Index[k])
				}
			}
		}
	}
}

func TestBatchMaskRowsMatchPerPixelMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const M, N = 17, 130
	y := make([]float64, M*N)
	for i := range y {
		if rng.Float64() < 0.4 {
			y[i] = math.NaN()
		} else {
			y[i] = rng.NormFloat64()
		}
	}
	bm := NewBatchMask(M, N, y)
	if bm.WordsPerRow != MaskWords(N) {
		t.Fatal("WordsPerRow wrong")
	}
	for i := 0; i < M; i++ {
		want := maskOf(y[i*N : (i+1)*N])
		row := bm.Row(i)
		for wi := range row {
			if row[wi] != want[wi] {
				t.Fatalf("pixel %d word %d differs", i, wi)
			}
		}
	}
}

func TestBatchMaskEmpty(t *testing.T) {
	bm := NewBatchMask(0, 100, nil)
	if bm.M != 0 || len(bm.Words) != 0 {
		t.Fatal("empty batch mask wrong")
	}
	// Zero-length series: zero words, counts zero.
	words := maskOf(nil)
	if len(words) != 0 || CountBits(words, 0) != 0 || len(AppendValidIndices(nil, words, 0)) != 0 {
		t.Fatal("empty series mask wrong")
	}
}

// TestFillMaskMatchesIsMissing holds the branch-free FillMask to the
// element-wise definition, bit for bit: every NaN encoding (quiet,
// signalling, negative, arbitrary payload) is missing, everything else —
// ±Inf, denormals, ±0 — is valid, and bits at or beyond len(y) stay clear.
func TestFillMaskMatchesIsMissing(t *testing.T) {
	special := []float64{
		math.NaN(), -math.NaN(),
		math.Float64frombits(0x7ff8000000000000), // quiet NaN
		math.Float64frombits(0x7ff0000000000001), // signalling NaN, lowest payload bit
		math.Float64frombits(0x7ff4000000000000), // signalling NaN
		math.Float64frombits(0xfff8000000000001), // negative quiet NaN with payload
		math.Float64frombits(0xfff0000000000001), // negative signalling NaN
		math.Float64frombits(0x7fffffffffffffff), // all payload bits
		math.Float64frombits(0xffffffffffffffff),
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(1),                  // smallest denormal
		math.Float64frombits(0x800fffffffffffff), // largest negative denormal
		0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1,
	}
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 63, 64, 65, 235, 512} {
		for rep := 0; rep < 8; rep++ {
			y := make([]float64, n)
			for i := range y {
				if rep == 0 {
					y[i] = special[i%len(special)]
				} else if rng.Intn(3) == 0 {
					y[i] = rng.NormFloat64()
				} else {
					y[i] = special[rng.Intn(len(special))]
				}
			}
			words := make([]uint64, MaskWords(n))
			for i := range words {
				words[i] = 0xa5a5a5a5a5a5a5a5 // FillMask must overwrite, not OR into
			}
			FillMask(y, words)
			for b := 0; b < 64*len(words); b++ {
				got := words[b/64]>>(uint(b)%64)&1 == 1
				want := b < n && !IsMissing(y[b])
				if got != want {
					t.Fatalf("n=%d rep=%d bit %d: got %v, want %v (value bits %#x)", n, rep, b, got, want,
						math.Float64bits(y[min(b, n-1)]))
				}
			}
		}
	}
}

func benchFillMask(b *testing.B, nanFrac float64) {
	rng := rand.New(rand.NewSource(1))
	const n, m = 512, 256
	ys := make([][]float64, m)
	for i := range ys {
		ys[i] = randSeries(rng, n, nanFrac)
	}
	w := make([]uint64, MaskWords(n))
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FillMask(ys[i%m], w)
	}
}

// i.i.d. gaps are the branch predictor's worst case, a gap-free series
// its best; the branch-free FillMask costs the same on both.
func BenchmarkFillMaskIID50(b *testing.B)    { benchFillMask(b, 0.5) }
func BenchmarkFillMaskAllValid(b *testing.B) { benchFillMask(b, 0) }

// TestKeepBitsMatchesBitByBit compares the run-at-a-time in-place
// compaction with moving the kept bits one by one, over keep sets from
// empty to full, runs crossing and filling whole words, and row lengths
// that leave a tail word.
func TestKeepBitsMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(330)
		w := MaskWords(n)
		words := maskOf(randSeries(rng, n, rng.Float64()))
		keep := make([]uint64, w)
		switch density := rng.Float64(); trial % 4 {
		case 0:
			for i := range keep {
				keep[i] = AllValidWord
			}
			if r := n % 64; r != 0 {
				keep[w-1] = 1<<uint(r) - 1
			}
		default:
			// Runs of random length, kept or skipped together.
			for d := 0; d < n; {
				run := 1 + rng.Intn(1+rng.Intn(100))
				kept := rng.Float64() < density
				for ; run > 0 && d < n; run, d = run-1, d+1 {
					if kept {
						keep[d/64] |= 1 << uint(d%64)
					}
				}
			}
		}
		want := make([]uint64, w)
		j := 0
		for _, d := range AppendValidIndices(nil, keep, n) {
			if words[d/64]&(1<<uint(d%64)) != 0 {
				want[j/64] |= 1 << uint(j%64)
			}
			j++
		}
		got := append([]uint64(nil), words...)
		KeepBits(got, keep)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d, %d kept): word %d = %#x, want %#x", trial, n, j, i, got[i], want[i])
			}
		}
	}
}
