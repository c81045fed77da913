package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
	"sync"
)

// appendJSONFloat appends v as encoding/json writes a float64: the
// shortest decimal that reads back as v (the closest such, ties to
// even), in 'f' layout for 1e-6 <= |v| < 1e21 and in 'e' layout with
// its e-0X exponents trimmed to e-X otherwise. The digits come from
// shortestDecimal, the Schubfach algorithm; TestAppendJSONFloat and
// FuzzAppendJSONFloat hold the bytes to json.Marshal's. Callers pass
// finite values; NaN and ±Inf keep strconv's text.
func appendJSONFloat(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	if u&(1<<63-1) == 0 {
		if u != 0 {
			return append(b, "-0"...)
		}
		return append(b, '0')
	}
	if u>>52&0x7ff == 0x7ff {
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	f, e := shortestDecimal(u)
	for f%10 == 0 {
		f /= 10
		e++
	}
	n := decimalLen(f)
	dp := n + e // |v| = 0.d₁…dₙ × 10^dp
	sign := int(u >> 63)

	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		// d₁.d₂…dₙe±x, with x = dp-1 at least two digits when positive
		// and as short as it goes when negative (json trims strconv's
		// e-0X to e-X).
		x, xn := dp-1, 2
		switch {
		case x <= -100 || x >= 100:
			xn = 3
		case -10 < x && x < 0:
			xn = 1
		}
		point := 0
		if n > 1 {
			point = 1
		}
		b, i := grow(b, sign, n+point+2+xn)
		// The digits go one to the right and d₁ comes back over the
		// point.
		writeDigits(b[i+1:i+1+n], f)
		b[i] = b[i+1]
		b[i+1] = '.'
		i += n + point
		b[i], b[i+1] = 'e', '+'
		if x < 0 {
			b[i+1] = '-'
			x = -x
		}
		i += 2
		switch xn {
		case 3:
			b[i] = byte('0' + x/100)
			x %= 100
			i++
			fallthrough
		case 2:
			b[i], b[i+1] = digitPairs[2*x], digitPairs[2*x+1]
		default:
			b[i] = byte('0' + x)
		}
		return b
	}
	switch {
	case dp <= 0: // 0.0…0d₁…dₙ, dp >= -5 here
		b, i := grow(b, sign, 2-dp+n)
		i += copy(b[i:], "0.00000"[:2-dp])
		writeDigits(b[i:], f)
		return b
	case dp >= n: // d₁…dₙ0…0, dp <= 21 here
		b, i := grow(b, sign, dp)
		writeDigits(b[i:i+n], f)
		copy(b[i+n:], "000000000000000000000")
		return b
	default: // d₁…d_dp.d_dp+1…dₙ
		b, i := grow(b, sign, n+1)
		writeDigits(b[i+1:], f)
		for j := i; j < i+dp; j++ {
			b[j] = b[j+1]
		}
		b[i+dp] = '.'
		return b
	}
}

// grow extends b by a minus sign when neg is 1 and then n bytes,
// reallocating only when its capacity is short, writes the sign, and
// returns b with the index of the first of the n bytes.
func grow(b []byte, neg, n int) ([]byte, int) {
	i := len(b)
	b = slices.Grow(b, neg+n)[:i+neg+n]
	if neg != 0 {
		b[i] = '-'
	}
	return b, i + neg
}

// shortestDecimal returns the shortest decimal f × 10^e that rounds to
// the finite, nonzero float64 whose bits are u (the sign is ignored),
// the one closest to it when several are as short, ties to an even f.
// f may carry trailing zeros.
//
// It is Schubfach (R. Giulietti, "The Schubfach way to render doubles",
// 2020). With v = c × 2^q, k = ⌊log10 2^q⌋ (⌊log10 ¾·2^q⌋ where the gap
// below v is half the gap above) makes 10^k the finest decimal step
// that can hold the shortest answer. The scaled bounds vbl < vb < vbr
// are 4 × (v's rounding-interval ends, v) × 10^-k rounded to odd, each
// one 64 × 128-bit multiply by g ≈ 10^-k. Then at most one multiple of
// 10 × 10^k and at least one multiple of 10^k lie in v's rounding
// interval, and the answer is that one, or the nearer of s and s+1 at
// step 10^k. The interval is closed when c is even, as a correctly
// rounded parse rounds a midpoint to the even neighbour.
func shortestDecimal(u uint64) (f uint64, e int) {
	c := u & (1<<52 - 1)
	be := int(u >> 52 & 0x7ff)
	q := -1074
	irregular := false
	if be != 0 {
		irregular = c == 0 && be > 1
		c |= 1 << 52
		q = be - 1075
	}
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k := q * 1262611 >> 22 // ⌊q log10 2⌋
	if irregular {
		cbl = cb - 1
		k = (q*1262611 - 524031) >> 22 // ⌊log10 ¾·2^q⌋
	}
	h := q + (-k*1741647)>>19 + 1 // q + ⌊-k log2 10⌋ + 1, in [1, 4]
	g := &pow10Table()[-k-minPow10]
	vbl := roundToOdd(g, cbl<<h)
	vb := roundToOdd(g, cb<<h)
	vbr := roundToOdd(g, cbr<<h)
	if c&1 != 0 { // an odd c's interval is open
		vbl++
		vbr--
	}

	s := vb >> 2
	if s >= 10 {
		sp := s / 10
		upin := vbl <= 40*sp
		wpin := 40*sp+40 <= vbr
		if upin != wpin {
			if wpin {
				sp++
			}
			return sp, k + 1
		}
	}
	uin := vbl <= 4*s
	win := 4*s+4 <= vbr
	if uin != win {
		if win {
			s++
		}
		return s, k
	}
	// Both s and s+1 are in: take the nearer, the even one on a tie.
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns ⌊g × cp / 2^128⌋, with its low bit set when the
// dropped fraction is at least 2^-63: the round-to-odd of the exact
// product, which g's error (under 2^-69 here) cannot disturb.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	xhi, _ := bits.Mul64(g[1], cp)
	yhi, ylo := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(ylo, xhi, 0)
	r := yhi + carry
	if z > 1 {
		r |= 1
	}
	return r
}

// minPow10 is the smallest exponent -k shortestDecimal looks up (k =
// 292 at the largest float64); the largest is 324 (k = -324 at the
// smallest subnormal).
const minPow10, maxPow10 = -292, 324

// pow10Table holds, for each e in [minPow10, maxPow10], g = ⌊10^e ×
// 2^(127 - ⌊e log2 10⌋)⌋ + 1 as {high, low} 64-bit words: 10^e scaled
// into [2^127, 2^128) and rounded up. It is computed once, exactly,
// with math/big, on the first float a process formats (about 1.2 ms on
// a 2-core x86-64 host).
var pow10Table = sync.OnceValue(func() *[maxPow10 - minPow10 + 1][2]uint64 {
	var t [maxPow10 - minPow10 + 1][2]uint64
	var buf [16]byte
	for i := range t {
		e := i + minPow10
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		g := new(big.Int)
		if e >= 0 {
			// ⌊e log2 10⌋ = bitlen(10^e) - 1
			if sh := 128 - p.BitLen(); sh >= 0 {
				g.Lsh(p, uint(sh))
			} else {
				g.Rsh(p, uint(-sh))
			}
		} else {
			// ⌊e log2 10⌋ = -bitlen(10^-e), 10^-e being no power of two
			g.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			g.Quo(g, p)
		}
		g.Add(g, big.NewInt(1)).FillBytes(buf[:])
		t[i] = [2]uint64{binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])}
	}
	return &t
})

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// decimalLen is the number of decimal digits of f > 0.
func decimalLen(f uint64) int {
	n := bits.Len64(f) * 1233 >> 12 // ⌊log10 2^bitlen⌋, at most one short
	if n < len(pow10u64) && f >= pow10u64[n] {
		n++
	}
	return n
}

var pow10u64 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// writeDigits fills dst, exactly as long as f has digits, with them:
// eight at a time in 32-bit arithmetic while more than eight are left,
// then two per step.
func writeDigits(dst []byte, f uint64) {
	i := len(dst)
	for f >= 1e8 {
		q := f / 1e8
		r := uint32(f - q*1e8)
		f = q
		i -= 8
		hi, lo := r/10000, r%10000
		a, b, c, d := hi/100, hi%100, lo/100, lo%100
		dst[i], dst[i+1] = digitPairs[2*a], digitPairs[2*a+1]
		dst[i+2], dst[i+3] = digitPairs[2*b], digitPairs[2*b+1]
		dst[i+4], dst[i+5] = digitPairs[2*c], digitPairs[2*c+1]
		dst[i+6], dst[i+7] = digitPairs[2*d], digitPairs[2*d+1]
	}
	x := uint32(f)
	for x >= 100 {
		r := x % 100
		x /= 100
		i -= 2
		dst[i], dst[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if x >= 10 {
		dst[i-2], dst[i-1] = digitPairs[2*x], digitPairs[2*x+1]
	} else {
		dst[i-1] = byte('0' + x)
	}
}
