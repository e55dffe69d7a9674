// Package ryu implements the Ryū shortest float-to-decimal conversion
// (Ulf Adams, PLDI 2018) — the second-generation successor to Burger &
// Dybvig's algorithm and the one inside Go's strconv today.
//
// Where Burger & Dybvig run an exact big-integer digit loop and Grisu runs
// a certified-or-fail fixed-point loop, Ryū precomputes 128-bit slices of
// the powers of five so that the three scaled values (the number and its
// rounding-range boundaries) come out of a single 64×128-bit
// multiplication each, exactly; the shortest digits then fall out of a
// small division loop with explicit trailing-zero bookkeeping.
//
// The reader's rounding enters exactly where it does in the paper: as
// the low-ok?/high-ok? pair of Figure 1, which says whether each endpoint
// of the rounding range may itself be output.  The kernel takes both
// flags from the exact core's mode table (core.ReaderMode.BoundaryOK),
// so one kernel serves all four nearest reader modes, for binary64
// (ShortestModeInto, with ShortestInto as the nearest-even entry) and
// binary32 (Shortest32Into) alike.  The directed modes print one-sided
// ranges instead and have their own kernels (directed.go), in both
// widths as well.
//
// A final-digit tie — v exactly halfway between the two shortest
// candidates — rounds up, as the paper's core does (Figure 1 takes the
// high digit when 2r = s), where Ryū and Go's strconv round it to even.
// So every result is byte-identical to the exact core's free-format
// output under the same reader mode, and differs from strconv on digit
// ties only.  The entry points decline (ok == false) only out-of-domain
// input: v <= 0, Inf, NaN, or a buffer shorter than BufLen.
//
// The powers come from the read kernel's 128-bit table of powers of ten
// (fastparse.Pow10), the one table of powers in the product, and every
// value path is differentially tested against both strconv and the exact
// Burger & Dybvig implementation.
//
// Ryū tabulates 125-bit slices: the top 125 bits of 5^i, and
// ⌊2^(pow5bits(q)+124)/5^q⌋+1 for 5^−q.  The shared entries are the same
// powers to 128 bits, truncated for 10^i and rounded up for 10^−q, so
// an entry shifted right three bits lies between Ryū's slice and the
// exact power.  Each product below uses the entry with its shift raised
// by three bits, and so lies between Ryū's product and the exact one;
// Ryū proves those two have the same floor, so the shared entry gives it
// too.  The divisibility checks read the inputs, not the products, and
// are Ryū's unchanged.
package ryu

import (
	"math"
	"math/bits"

	"floatprint/internal/core"
	"floatprint/internal/fastparse"
)

const (
	mantBits = 52
	expBits  = 11
	bias     = 1023
)

// pow5bits returns ceil(log2(5^e)) + 1... precisely the bit count used by
// Ryū: floor(e·log2(5)) + 1 for 0 <= e <= 3528.
func pow5bits(e int) int {
	return int((uint64(e)*1217359)>>19) + 1
}

// log10Pow2 returns floor(e·log10(2)) for 0 <= e <= 1650.
func log10Pow2(e int) int {
	return int((uint64(e) * 78913) >> 18)
}

// log10Pow5 returns floor(e·log10(5)) for 0 <= e <= 2620.
func log10Pow5(e int) int {
	return int((uint64(e) * 732923) >> 20)
}

// mulShift64 returns (m × mul) >> j for a 128-bit mul, 64 < j < 128.
// mul points into the shared table, so the entry is read in place.
func mulShift64(m uint64, mul *[2]uint64, j int) uint64 {
	b0hi, _ := bits.Mul64(m, mul[0])
	b2hi, b2lo := bits.Mul64(m, mul[1])
	sumLo, carry := bits.Add64(b0hi, b2lo, 0)
	sumHi := b2hi + carry
	shift := uint(j - 64)
	return sumLo>>shift | sumHi<<(64-shift)
}

func multipleOfPowerOf5(value uint64, p int) bool {
	count := 0
	for {
		q := value / 5
		r := value - 5*q
		if r != 0 {
			break
		}
		value = q
		count++
		if count >= p {
			return true
		}
	}
	return count >= p
}

func multipleOfPowerOf2(value uint64, p int) bool {
	return bits.TrailingZeros64(value) >= p
}

// BufLen is the smallest digit buffer ShortestInto accepts: the digit
// loop emits at most 17 significant decimal digits for a binary64 value,
// with slack for the pre-trim intermediate.
const BufLen = 20

// Shortest converts a positive finite v to its shortest decimal form under
// a round-to-nearest-even reader, returning digit values and K with
// V = 0.d₁…dₙ × 10ᴷ.  ok is false when the input is out of domain
// (v <= 0, Inf, NaN).
func Shortest(v float64) (digits []byte, k int, ok bool) {
	var buf [BufLen]byte
	n, k, ok := ShortestInto(buf[:], v)
	if !ok {
		return nil, 0, false
	}
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = buf[i] - '0' // digit values, not ASCII
	}
	return out, k, true
}

// ShortestInto is Shortest writing the digits into buf — as ASCII bytes
// '0'..'9', ready to print — which must hold at least BufLen bytes.  It
// performs no heap allocation, which makes it the substrate for the
// public package's zero-allocation append path (and ASCII is what that
// path wants: the bytes go to output verbatim, so emitting them printable
// here saves a conversion pass per call).
func ShortestInto(buf []byte, v float64) (n, k int, ok bool) {
	return shortest(buf, v, false, core.ReaderNearestEven)
}

// ShortestModeInto is ShortestInto for a reader that rounds under mode:
// the output is byte-identical to the exact core's free-format result
// under the same mode (core.FreeFormat).
func ShortestModeInto(buf []byte, v float64, mode core.ReaderMode) (n, k int, ok bool) {
	return shortest(buf, v, false, mode)
}

// Shortest32Into is ShortestModeInto for a binary32 value: the same
// kernel on the float32 decomposition, so the digits are the shortest
// that identify v among float32s (at most 9).
func Shortest32Into(buf []byte, v float32, mode core.ReaderMode) (n, k int, ok bool) {
	return shortest(buf, float64(v), true, mode)
}

// decomposeWidth splits a positive finite v — a binary64 value, or when
// f32 is set a binary32 value widened to float64 (exactly) — into the
// kernels' step-1/2 quantities (see decompose).
func decomposeWidth(v float64, f32 bool) (mv uint64, e2 int, mmShift uint64) {
	if f32 {
		return decompose(uint64(math.Float32bits(float32(v))), 23, 8, 127)
	}
	return decompose(math.Float64bits(v), mantBits, expBits, bias)
}

// inDomain condenses the kernels' domain check: a buffer of at least
// BufLen bytes and a positive finite v.  !(v > 0) rejects zero,
// negatives, and NaN in one compare, and the only positive non-finite
// left is +Inf.
func inDomain(buf []byte, v float64) bool {
	return len(buf) >= BufLen && v > 0 && v <= math.MaxFloat64
}

// decompose splits the IEEE encoding b of a positive finite value
// (mantBits explicit mantissa bits, expBits exponent bits, exponent bias)
// into Ryū's step-1/2 quantities: the quarter-ulp significand mv = 4·m2,
// its binary exponent e2, and the lower-boundary shift (1 except at the
// uneven power-of-two gap).  Binary32 values lie inside the domain the
// binary64 tables are built for (m2 below 2^53, e2 within binary64's
// range), so binary32 runs through them unchanged, as in Go's strconv.
func decompose(b uint64, mantBits, expBits uint, bias int) (mv uint64, e2 int, mmShift uint64) {
	ieeeMantissa := b & (1<<mantBits - 1)
	ieeeExponent := int(b >> mantBits & (1<<expBits - 1))
	m2 := ieeeMantissa
	if ieeeExponent == 0 {
		e2 = 1 - bias - int(mantBits) - 2
	} else {
		e2 = ieeeExponent - bias - int(mantBits) - 2
		m2 |= 1 << mantBits
	}
	if ieeeMantissa != 0 || ieeeExponent <= 1 {
		mmShift = 1
	}
	return 4 * m2, e2, mmShift
}

// shortest is the nearest kernel proper: the shortest decimal in the
// rounding range of v, a binary64 value or, when f32 is set, a binary32
// value widened to float64 (exactly), with each range endpoint admissible
// or not as mode's Figure-1 flags say.  Taking both formats as a float64
// keeps the entry points cheap enough to inline, so the append path pays
// one call into the kernel.
func shortest(buf []byte, v float64, f32 bool, mode core.ReaderMode) (n, k int, ok bool) {
	if !inDomain(buf, v) {
		return 0, 0, false
	}
	mv, e2, mmShift := decomposeWidth(v, f32)

	// The endpoint policy: a lower bound the reader rounds up to the
	// value may itself be output (acceptLow), and so may an upper bound
	// it rounds down to the value (acceptHigh).  Of the value, only the
	// parity of m2 = mv/4 matters.
	acceptLow, acceptHigh := mode.BoundaryOK(mv&4 == 0)

	// Step 3: scale to decimal with one table multiplication per value.
	var vr, vp, vm uint64
	var e10 int
	vmIsTrailingZeros := false
	if e2 >= 0 {
		q := log10Pow2(e2)
		if e2 > 3 {
			q--
		}
		e10 = q
		// The entry is 2^(127+b)/5^q rounded up, with b = ⌈q·log₂5⌉:
		// pow5bits(q) for q >= 1, and 0 at q = 0, where the entry is 2¹²⁷.
		i := -e2 + q + pow5bits(q) + 126 + min(q, 1)
		mul := fastparse.Pow10(-q)
		vr = mulShift64(mv, mul, i)
		vp = mulShift64(mv+2, mul, i)
		vm = mulShift64(mv-1-mmShift, mul, i)
		// Only one of mv-1-mmShift, mv, mv+2 can be a multiple of 5, so
		// at most one of the scaled values is exact.  An exact admissible
		// lower bound is a candidate (vmIsTrailingZeros); an exact
		// inadmissible upper bound is not, so the largest candidate is
		// one below it.
		if q <= 21 && mv%5 != 0 {
			if acceptLow {
				vmIsTrailingZeros = multipleOfPowerOf5(mv-1-mmShift, q)
			}
			if !acceptHigh && multipleOfPowerOf5(mv+2, q) {
				vp--
			}
		}
	} else {
		q := log10Pow5(-e2)
		if -e2 > 1 {
			q--
		}
		e10 = q + e2
		i := -e2 - q
		j := q - pow5bits(i) + 128
		mul := fastparse.Pow10(i)
		vr = mulShift64(mv, mul, j)
		vp = mulShift64(mv+2, mul, j)
		vm = mulShift64(mv-1-mmShift, mul, j)
		if q <= 1 {
			// mv+2 has exactly one trailing zero bit, and mv-1-mmShift
			// has one iff mmShift == 1: with q <= 1 the scaled vp is
			// exact, and vm is when mmShift == 1.
			if acceptLow {
				vmIsTrailingZeros = mmShift == 1
			}
			if !acceptHigh {
				vp--
			}
		}
	}

	// Step 4: find the shortest representation in the range (vm, vp),
	// closed at either end the policy admits, and round it half up: the
	// last removed digit alone decides, so a final-digit tie (a removed
	// tail of exactly 5) takes the high candidate, as the paper's core
	// does, where Ryū's round-to-even would need vr's own trailing zeros.
	// Only an exact admissible lower bound needs its zeros tracked.
	removed := 0
	var out uint64
	if vmIsTrailingZeros {
		var lastRemovedDigit uint8
		for vp/10 > vm/10 {
			vmIsTrailingZeros = vmIsTrailingZeros && vm%10 == 0
			lastRemovedDigit = uint8(vr % 10)
			vr /= 10
			vp /= 10
			vm /= 10
			removed++
		}
		if vmIsTrailingZeros {
			for vm%10 == 0 {
				lastRemovedDigit = uint8(vr % 10)
				vr /= 10
				vp /= 10
				vm /= 10
				removed++
			}
		}
		out = vr
		if (vr == vm && !vmIsTrailingZeros) || lastRemovedDigit >= 5 {
			out++
		}
	} else {
		roundUp := false
		if vp/100 > vm/100 {
			roundUp = vr%100 >= 50
			vr /= 100
			vp /= 100
			vm /= 100
			removed += 2
		}
		for vp/10 > vm/10 {
			roundUp = vr%10 >= 5
			vr /= 10
			vp /= 10
			vm /= 10
			removed++
		}
		out = vr
		if vr == vm || roundUp {
			out++
		}
	}
	exp := e10 + removed

	// Emit ASCII digits into the caller's buffer.  The length is known up
	// front (decimalLen), so digits land in their final positions — no
	// reversal pass — and they come off two at a time through the pair
	// table, so a 17-digit result costs nine 64-bit divisions instead of
	// seventeen with no per-digit split arithmetic.  The emitter is shared
	// with the one-sided kernels (directed.go).
	n = writeDecimal(buf, out)
	return n, exp + n, true
}

// digitPairs holds the two-digit ASCII renderings "00".."99" back to
// back, so one table load replaces a div/mod pair per two digits.
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

// pow10 holds the powers of ten representable in a uint64.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the decimal digit count of u >= 1: a bit-length
// estimate of log10 (1233/4096 ≈ log10(2)), corrected by one table
// compare.
func decimalLen(u uint64) int {
	t := bits.Len64(u) * 1233 >> 12
	if u >= pow10[t] {
		t++
	}
	return t
}
