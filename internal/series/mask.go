package series

import (
	"fmt"
	"math"
	"math/bits"
)

// ValidMask is a per-pixel validity bitset: bit t (LSB-first, bit t%64
// of word t/64) is set iff observation t is valid (non-NaN). It is the
// CPU analogue of the paper's missing-value handling in the masked
// batched kernels (§III-C): the NaN pattern is discovered once and every
// subsequent kernel pass iterates mask words instead of re-testing
// each element with math.IsNaN. A word equal to AllValidWord means 64
// consecutive valid observations and unlocks the dense fast path —
// mirroring the paper's argument that padded, fully-valid groups run at
// regular-kernel speed.
type ValidMask struct {
	// N is the number of observations covered (bits beyond N are zero).
	N int
	// Words holds the ceil(N/64) validity words.
	Words []uint64
}

// AllValidWord is a fully-set validity word: 64 consecutive valid dates.
const AllValidWord = ^uint64(0)

// MaskWords returns the number of uint64 words needed for n bits.
func MaskWords(n int) int { return (n + 63) / 64 }

// FillMask writes y's validity bits into words (which must have
// MaskWords(len(y)) entries); trailing bits beyond len(y) are cleared.
//
// Each word is assembled in a register from up to 64 observations and
// stored once, and validity is integer arithmetic on the bit pattern, so
// the loop has no data-dependent branch to mispredict on irregular gaps:
// a value is valid (not a NaN of any sign, payload or signalling bit)
// exactly when its magnitude bits do not exceed +Inf's, which is when
// subtracting Inf+1 from them wraps and sets bit 63. That bit is shifted
// in at the top of the word, so after a full word observation t sits at
// bit t, and a shorter last word is shifted down into place.
//
//bfast:kernel
func FillMask(y []float64, words []uint64) {
	if len(words) != MaskWords(len(y)) {
		panic(fmt.Sprintf("series: mask has %d words for %d observations", len(words), len(y)))
	}
	const (
		sign    = 1 << 63
		pastInf = 0x7ff0000000000001
	)
	for wi := range words {
		chunk := y[wi*64:]
		if len(chunk) > 64 {
			chunk = chunk[:64]
		}
		var w uint64
		for _, v := range chunk {
			w = w>>1 | (math.Float64bits(v)&^sign-pastInf)&sign
		}
		words[wi] = w >> uint(64-len(chunk))
	}
}

// MaskOf builds the validity mask for one series.
func MaskOf(y []float64) ValidMask {
	m := ValidMask{N: len(y), Words: make([]uint64, MaskWords(len(y)))}
	FillMask(y, m.Words)
	return m
}

// Valid reports whether observation t is valid.
func (m ValidMask) Valid(t int) bool {
	return t >= 0 && t < m.N && m.Words[t/64]&(1<<uint(t%64)) != 0
}

// CountValid returns N̄, the number of valid observations, via popcount.
func (m ValidMask) CountValid() int { return CountBits(m.Words, m.N) }

// CountValidPrefix returns n̄: the number of valid observations among
// the first n dates (the stable history period).
func (m ValidMask) CountValidPrefix(n int) int {
	if n > m.N {
		n = m.N
	}
	return CountBits(m.Words, n)
}

// AllValid reports whether every one of the first n observations is
// valid — the fast-path test mirroring the paper's padding argument.
func (m ValidMask) AllValid(n int) bool { return AllValidBits(m.Words, n) }

// CountBits returns the popcount of the first n bits of words.
//
//bfast:kernel
func CountBits(words []uint64, n int) int {
	if n <= 0 {
		return 0
	}
	full := n / 64
	c := 0
	for _, w := range words[:full] {
		c += bits.OnesCount64(w)
	}
	if tail := n % 64; tail != 0 {
		c += bits.OnesCount64(words[full] & (1<<uint(tail) - 1))
	}
	return c
}

// AllValidBits reports whether the first n bits of words are all set.
func AllValidBits(words []uint64, n int) bool {
	if n <= 0 {
		return true
	}
	full := n / 64
	for _, w := range words[:full] {
		if w != AllValidWord {
			return false
		}
	}
	if tail := n % 64; tail != 0 {
		m := uint64(1)<<uint(tail) - 1
		return words[full]&m == m
	}
	return true
}

// NthValid returns the original index of the k-th (0-based) valid
// observation among the first n dates, or -1 if fewer than k+1 exist.
// It skips whole words by popcount and bit-scans only the final word —
// the remapIndices step of Fig. 12 driven by the bitset.
//
//bfast:kernel
func NthValid(words []uint64, n, k int) int {
	if k < 0 {
		return -1
	}
	full := n / 64
	tail := n % 64
	for wi := 0; ; wi++ {
		var w uint64
		switch {
		case wi < full:
			w = words[wi]
		case wi == full && tail != 0:
			w = words[wi] & (1<<uint(tail) - 1)
		default:
			return -1
		}
		if c := bits.OnesCount64(w); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1 // clear lowest set bit
		}
		return wi*64 + bits.TrailingZeros64(w)
	}
}

// KeepBits compacts words in place to the dates set in keep (a bitset
// of the same length): bit j becomes the bit at the position of keep's
// j-th set bit, and the words past the compacted bits are cleared. It
// copies each run of consecutive kept dates with one shift and mask,
// not bit by bit. In place is safe because a bit only ever moves down,
// so a word is stored only after it has been read.
//
//bfast:kernel
func KeepBits(words, keep []uint64) {
	var acc uint64          // compacted bits not yet stored
	fill, out := uint(0), 0 // bits in acc; next word to store
	for wi, k := range keep {
		v := words[wi]
		for k != 0 {
			s := uint(bits.TrailingZeros64(k))
			n := uint(bits.TrailingZeros64(^(k >> s))) // run length, 1..64
			run := v >> s & (1<<n - 1)
			acc |= run << fill
			if fill += n; fill >= 64 {
				words[out] = acc
				out++
				fill -= 64
				acc = run >> (n - fill) // Go shifts by 64 give 0
			}
			k &^= (1<<n - 1) << s
		}
	}
	if fill > 0 {
		words[out] = acc
		out++
	}
	clear(words[out:])
}

// BatchMask holds the validity bitsets of a whole M×N batch, one row of
// WordsPerRow words per pixel, computed once per batch and shared by
// every kernel pass (the "compute the NaN structure once" half of the
// paper's irregular-workload strategy). WordsPerRow is at least
// MaskWords(N); it is larger when the rows were compacted in place to
// fewer dates (KeepBits), and the words past MaskWords(N) are zero.
type BatchMask struct {
	M, N        int
	WordsPerRow int
	Words       []uint64 // M * WordsPerRow, row-major
}

// NewBatchMask computes the validity bitsets for the flat row-major
// M×N matrix y (len(y) must be m*n).
func NewBatchMask(m, n int, y []float64) *BatchMask {
	if m < 0 || n < 0 || len(y) != m*n {
		panic(fmt.Sprintf("series: batch mask of %d values for %d×%d", len(y), m, n))
	}
	bm := &BatchMask{M: m, N: n, WordsPerRow: MaskWords(n)}
	bm.Words = make([]uint64, m*bm.WordsPerRow)
	for i := 0; i < m; i++ {
		FillMask(y[i*n:(i+1)*n], bm.Row(i))
	}
	return bm
}

// Row returns pixel i's validity words (a view, not a copy).
func (b *BatchMask) Row(i int) []uint64 {
	return b.Words[i*b.WordsPerRow : (i+1)*b.WordsPerRow]
}

// RowMask returns pixel i's words wrapped as a ValidMask.
func (b *BatchMask) RowMask(i int) ValidMask {
	return ValidMask{N: b.N, Words: b.Row(i)}
}

// AppendValidIndices appends the original indices of the valid
// observations among the first n dates to dst (in increasing order) and
// returns the extended slice. Used to rebuild compacted index scratch
// from the bitset without re-scanning the float data.
func AppendValidIndices(dst []int, words []uint64, n int) []int {
	full := n / 64
	for wi := 0; wi < full; wi++ {
		w := words[wi]
		base := wi * 64
		if w == AllValidWord {
			for t := base; t < base+64; t++ {
				dst = append(dst, t)
			}
			continue
		}
		for ; w != 0; w &= w - 1 {
			dst = append(dst, base+bits.TrailingZeros64(w))
		}
	}
	if tail := n % 64; tail != 0 {
		w := words[full] & (1<<uint(tail) - 1)
		for ; w != 0; w &= w - 1 {
			dst = append(dst, full*64+bits.TrailingZeros64(w))
		}
	}
	return dst
}
