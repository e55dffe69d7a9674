package reader

import (
	"fmt"
	"strings"

	"floatprint/internal/fpformat"
)

// ParseText parses a positional number in the given base into a Number.
//
// Syntax: [+|-] digits [ "." digits ] [ exp ], where exp is "@" (any base)
// or "e"/"E" (bases up to 10, where they cannot be digits) followed by an
// optional sign and one or more *decimal* digits; the exponent scales by a
// power of the number's own base, as in GMP.  Digit letters are accepted
// in either case.  '#' marks — the paper's insignificance placeholders —
// are accepted in trailing positions and read as zeros, so fixed-format
// output can be fed back in.
func ParseText(s string, base int) (Number, error) {
	if base < 2 || base > 36 {
		return Number{}, fmt.Errorf("reader: base %d out of range [2,36]", base)
	}
	orig := s
	if s == "" {
		return Number{}, fmt.Errorf("reader: empty input")
	}
	// Every digit is one byte of s, so one buffer of len(s) holds them all.
	n := Number{Base: base, Digits: make([]byte, 0, len(s))}
	switch s[0] {
	case '+':
		s = s[1:]
	case '-':
		n.Neg = true
		s = s[1:]
	}

	// Split off the exponent part.
	expVal := 0
	expIdx := strings.IndexByte(s, '@')
	if expIdx < 0 && base <= 10 {
		if i := strings.IndexAny(s, "eE"); i >= 0 {
			expIdx = i
		}
	}
	if expIdx >= 0 {
		es := s[expIdx+1:]
		s = s[:expIdx]
		neg := false
		switch {
		case strings.HasPrefix(es, "+"):
			es = es[1:]
		case strings.HasPrefix(es, "-"):
			neg = true
			es = es[1:]
		}
		if es == "" {
			return Number{}, fmt.Errorf("reader: missing exponent digits in %q", orig)
		}
		for _, c := range []byte(es) {
			if c < '0' || c > '9' {
				return Number{}, fmt.Errorf("reader: bad exponent digit %q in %q", c, orig)
			}
			expVal = expVal*10 + int(c-'0')
			if expVal > 1<<24 {
				return Number{}, fmt.Errorf("reader: exponent overflow in %q", orig)
			}
		}
		if neg {
			expVal = -expVal
		}
	}

	// Mantissa: digits with at most one point; count integer digits.
	intDigits := -1
	sawDigit := false
	marksStarted := false
	for _, c := range []byte(s) {
		switch {
		case c == '.':
			if intDigits >= 0 {
				return Number{}, fmt.Errorf("reader: multiple points in %q", orig)
			}
			intDigits = len(n.Digits)
			continue
		case c == '#':
			marksStarted = true
			n.Digits = append(n.Digits, 0)
			sawDigit = true
			continue
		case marksStarted:
			return Number{}, fmt.Errorf("reader: digit after # mark in %q", orig)
		}
		d, ok := digitVal(c)
		if !ok || d >= base {
			return Number{}, fmt.Errorf("reader: invalid digit %q for base %d in %q", c, base, orig)
		}
		n.Digits = append(n.Digits, byte(d))
		sawDigit = true
	}
	if !sawDigit {
		return Number{}, fmt.Errorf("reader: no digits in %q", orig)
	}
	if intDigits < 0 {
		intDigits = len(n.Digits)
	}
	// Value = 0.d₁…dₙ × B^(intDigits + exp).
	n.K = intDigits + expVal
	return n, nil
}

func digitVal(c byte) (int, bool) {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0'), true
	case 'a' <= c && c <= 'z':
		return int(c-'a') + 10, true
	case 'A' <= c && c <= 'Z':
		return int(c-'A') + 10, true
	}
	return 0, false
}

// Parse parses a base-B string directly to a value of format f.
func Parse(s string, base int, f *fpformat.Format, mode RoundMode) (fpformat.Value, error) {
	n, err := ParseText(s, base)
	if err != nil {
		return fpformat.Value{}, err
	}
	return Convert(n, f, mode)
}
