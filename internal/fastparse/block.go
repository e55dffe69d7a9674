// The scanner every fast read shares, built first for the batch
// ingestion engine (Lemire, "Number Parsing at a Gigabyte per Second").
// Three costs dominate a bulk parse that a per-value loop pays in full
// for every number: finding the token boundary, validating that bytes
// are digits, and folding digits into the significand one multiply at a
// time.  ParseToken64 amortizes all three the way the paper prescribes —
// it consumes the leading number directly out of the stream (no separate
// tokenization pass), validates digit runs eight bytes per 64-bit SWAR
// test, folds eight validated digits into the significand with one
// multiply-by-10⁸, and accumulates optimistically in the same pass (a
// wrap is impossible while the significant digit count stays ≤ 19;
// longer runs take a rare recompute) — then hands the scanned decimal to
// the certified Eisel–Lemire kernel.  Read64, Read32 and their wrappers
// run the same scanner over their whole input, so a block result can
// never differ from a per-value result.
//
// The grammar is the common case only: [+|-] digits with at most one
// point, then an optional e/E exponent, terminated by a separator or the
// end of input.  Everything else the exact reader accepts ('#' marks,
// '@' exponents, specials, other bases) is declined, keeping the
// decline-don't-error contract: the caller falls back to floatprint's
// parse, whose exact reader is the reference for values and error text.

package fastparse

import (
	"encoding/binary"
	"math"

	"floatprint/internal/reader"
)

// sepTable marks the separator bytes of the batch grammar: newline,
// carriage return, comma, space, tab.  floatprint.BatchSep is defined
// in terms of IsSep, so the two layers cannot drift.
var sepTable = [256]bool{'\n': true, '\r': true, ',': true, ' ': true, '\t': true}

// IsSep reports whether c separates tokens in a batch parse stream.
func IsSep(c byte) bool { return sepTable[c] }

// isEightDigits reports whether all eight bytes of v (a little-endian
// load of eight input bytes) are ASCII digits, in five 64-bit ops: the
// high nibble of a digit is 3 and its low nibble must not carry past 9
// when 6 is added.
func isEightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 ==
		0x3333333333333333
}

// eightDigitsValue converts eight ASCII digits (little-endian load,
// first digit in the low byte) to their base-10 value with three
// multiplies: bytes pair into two-digit groups, groups into four-digit
// groups, and one widening multiply-accumulate merges the two halves.
func eightDigitsValue(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	const mul1 = 0x000F424000000064 // 100 + (1000000 << 32)
	const mul2 = 0x0000271000000001 // 1 + (10000 << 32)
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&mask)*mul1 + (v>>16&mask)*mul2) >> 32
}

// scanToken scans the number at the head of b in one fused pass:
// validation and accumulation happen together, eight digits per SWAR
// test and multiply while a full chunk remains.  The accumulation is
// optimistic — digits fold into man as they are read, which cannot wrap
// while the significant digit count stays ≤ 19 (10¹⁹−1 < 2⁶⁴) — and
// the rare longer token is recomputed by scanLong under the exact
// 19-digit cap and dp/trunc bookkeeping.  n is the number of bytes
// consumed; the token must end at a separator or the end of input.
// Anything outside the grammar returns ok=false.
func scanToken(b []byte) (d decimal, n int, ok bool) {
	i := 0
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		d.neg = b[i] == '-'
		i++
	}
	var man uint64
	intStart := i
	for i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		if !isEightDigits(v) {
			break
		}
		man = man*100000000 + eightDigitsValue(v)
		i += 8
	}
	for i < len(b) {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		man = man*10 + uint64(c)
		i++
	}
	intLen := i - intStart
	fracStart, fracLen := i, 0
	if i < len(b) && b[i] == '.' {
		i++
		fracStart = i
		for i+8 <= len(b) {
			v := binary.LittleEndian.Uint64(b[i:])
			if !isEightDigits(v) {
				break
			}
			man = man*100000000 + eightDigitsValue(v)
			i += 8
		}
		for i < len(b) {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			man = man*10 + uint64(c)
			i++
		}
		fracLen = i - fracStart
	}
	if intLen == 0 && fracLen == 0 {
		return decimal{}, 0, false
	}
	exp := 0
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		edStart := i
		for i < len(b) {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			exp = exp*10 + int(c)
			if exp > maxExponent {
				return decimal{}, 0, false // reader: "exponent overflow"
			}
			i++
		}
		if i == edStart {
			return decimal{}, 0, false // reader: "missing exponent digits"
		}
		if eneg {
			exp = -exp
		}
	}
	if i != len(b) && !sepTable[b[i]] {
		// Anything else before the separator — '#' marks, '@' exponents,
		// a second point, junk — declines to the exact reader.
		return decimal{}, 0, false
	}

	// Leading zeros carry no significance; sig is the true significant
	// digit count, deciding whether the optimistic man is exact.
	lz := 0
	for lz < intLen && b[intStart+lz] == '0' {
		lz++
	}
	sig := intLen - lz + fracLen
	if lz == intLen {
		flz := 0
		for flz < fracLen && b[fracStart+flz] == '0' {
			flz++
		}
		sig = fracLen - flz
	}
	if sig <= 19 {
		// The common case: every significant digit is already in man, and
		// the value is man × 10^(exp − fracLen) regardless of where the
		// leading zeros sat.
		d.man = man
		d.nd = sig
		d.exp10 = exp - fracLen
		return d, i, true
	}
	return scanLong(b, d.neg, intStart, intLen, fracStart, fracLen, exp, i)
}

// scanLong recomputes a >19-significant-digit token under exact
// bookkeeping: at most 19 digits fold into man, dropped integer
// digits still scale the value, and any nonzero drop marks man as
// truncated.
func scanLong(b []byte, neg bool, intStart, intLen, fracStart, fracLen, exp, n int) (decimal, int, bool) {
	intRun := b[intStart : intStart+intLen]
	fracRun := b[fracStart : fracStart+fracLen]
	for len(intRun) > 0 && intRun[0] == '0' {
		intRun = intRun[1:]
	}
	dp := 0
	if len(intRun) == 0 {
		for len(fracRun) > 0 && fracRun[0] == '0' {
			fracRun = fracRun[1:]
			dp--
		}
	}
	d := decimal{neg: neg}
	take := min(19, len(intRun))
	d.man = accumDigits(d.man, intRun[:take])
	d.nd = take
	for _, c := range intRun[take:] {
		dp++
		if c != '0' {
			d.trunc = true
		}
	}
	ftake := min(19-d.nd, len(fracRun))
	d.man = accumDigits(d.man, fracRun[:ftake])
	d.nd += ftake
	dp -= ftake
	for _, c := range fracRun[ftake:] {
		if c != '0' {
			d.trunc = true
		}
	}
	d.exp10 = dp + exp
	return d, n, true
}

// accumDigits folds an already-validated digit run into man, eight
// digits per multiply while a full chunk remains.  The caller caps the
// total digit count at 19, so man never overflows.
func accumDigits(man uint64, run []byte) uint64 {
	i := 0
	for ; i+8 <= len(run); i += 8 {
		man = man*100000000 + eightDigitsValue(binary.LittleEndian.Uint64(run[i:]))
	}
	for ; i < len(run); i++ {
		man = man*10 + uint64(run[i]-'0')
	}
	return man
}

// ParseToken64 parses the number token at the head of b, stopping at
// the first separator (see IsSep) or the end of input, and reports the
// bytes consumed, under round-to-nearest-even.  The contract is the
// same decline-don't-error as Read64: ok=true certifies a result
// bit-identical to the exact reader's for the consumed token; ok=false
// means the caller must delimit the token itself and use the exact
// reader (which also covers the grammar this scanner deliberately omits
// — specials, '#' marks, '@' exponents).
func ParseToken64(b []byte) (f float64, n int, ok bool) {
	d, n, ok := scanToken(b)
	if !ok {
		return 0, 0, false
	}
	v, ok := round[uint64](&d, reader.NearestEven)
	if !ok {
		return 0, 0, false
	}
	return math.Float64frombits(v), n, true
}
