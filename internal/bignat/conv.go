package bignat

import (
	"fmt"
	"math/bits"
)

const digitAlphabet = "0123456789abcdefghijklmnopqrstuvwxyz"

// String returns the decimal representation of n.
func (n Nat) String() string { return n.Text(10) }

// Text returns the representation of n in the given base, 2 <= base <= 36,
// using lower-case letters for digits >= 10.
func (n Nat) Text(base int) string {
	if base < 2 || base > 36 {
		panic(fmt.Sprintf("bignat: illegal base %d", base))
	}
	if len(n) == 0 {
		return "0"
	}

	// Power-of-two bases convert limb-by-limb without division.
	if base&(base-1) == 0 {
		return n.textPow2(uint(bits.TrailingZeros(uint(base))))
	}

	// Chunked repeated division: divide by the largest power of base that
	// fits in a Word so each DivModWord peels off many digits at once.
	chunkDigits, chunkValue := chunkFor(base)
	var out []byte
	x := n
	for !x.IsZero() {
		var r Word
		x, r = DivModWord(x, chunkValue)
		for i := 0; i < chunkDigits; i++ {
			out = append(out, digitAlphabet[r%Word(base)])
			r /= Word(base)
		}
	}
	// Trim the leading zeros introduced by the final, partial chunk.
	i := len(out) - 1
	for i > 0 && out[i] == '0' {
		i--
	}
	out = out[:i+1]
	reverse(out)
	return string(out)
}

// textPow2 converts n to base 2^shift by walking the bits directly.
func (n Nat) textPow2(shift uint) string {
	mask := Word(1)<<shift - 1
	ndigits := (n.BitLen() + int(shift) - 1) / int(shift)
	out := make([]byte, ndigits)
	for i := 0; i < ndigits; i++ {
		bitPos := uint(i) * shift
		limb, off := int(bitPos/wordBits), bitPos%wordBits
		d := n[limb] >> off
		if off+shift > wordBits && limb+1 < len(n) {
			d |= n[limb+1] << (wordBits - off)
		}
		out[ndigits-1-i] = digitAlphabet[d&mask]
	}
	return string(out)
}

// chunkFor returns the largest k and base**k such that base**k fits in a
// Word, for chunked radix conversion.
func chunkFor(base int) (digits int, value Word) {
	digits, value = 1, Word(base)
	for {
		hi, lo := bits.Mul(uint(value), uint(base))
		if hi != 0 {
			return digits, value
		}
		digits, value = digits+1, Word(lo)
	}
}

// FromDigits returns the number whose base-base digits, most significant
// first, are the values ds (each below base; the caller validates them).
// It folds a word-sized chunk of digits at a time into one result, built
// in place in a buffer sized up front, so the whole fold costs one
// allocation.
func FromDigits(ds []byte, base int) Nat {
	chunkDigits, _ := chunkFor(base)
	// ceil(log2 base) bits per digit bound every prefix of the fold.
	z := make(Nat, 0, (len(ds)*bits.Len(uint(base-1))+wordBits-1)/wordBits)
	for start := 0; start < len(ds); start += chunkDigits {
		var chunk, scale Word = 0, 1
		for _, d := range ds[start:min(start+chunkDigits, len(ds))] {
			chunk = chunk*Word(base) + Word(d)
			scale *= Word(base)
		}
		z = MulAddWordInPlace(z, scale, chunk)
	}
	return z
}

func reverse(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}

// ParseText parses a natural number in the given base, 2 <= base <= 36,
// accepting the digits 0-9 and letters in either case.  It is the inverse
// of Text and rejects empty strings and out-of-range digits.
func ParseText(s string, base int) (Nat, error) {
	if base < 2 || base > 36 {
		return nil, fmt.Errorf("bignat: illegal base %d", base)
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("bignat: empty string")
	}
	ds := make([]byte, len(s))
	for i, c := range []byte(s) {
		d, err := digitValue(c)
		if err != nil {
			return nil, err
		}
		if d >= base {
			return nil, fmt.Errorf("bignat: digit %q out of range for base %d", c, base)
		}
		ds[i] = byte(d)
	}
	return FromDigits(ds, base), nil
}

func digitValue(c byte) (int, error) {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0'), nil
	case 'a' <= c && c <= 'z':
		return int(c-'a') + 10, nil
	case 'A' <= c && c <= 'Z':
		return int(c-'A') + 10, nil
	}
	return 0, fmt.Errorf("bignat: invalid digit %q", c)
}
