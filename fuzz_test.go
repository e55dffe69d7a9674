package floatprint

// Native Go fuzz targets, grown out of cmd/fpfuzz's structured
// generators: the seed corpus below reproduces one representative of
// each fpfuzz value class (uniform bits, binade edges, denormals,
// decimal neighbors, long 9/0 runs), and the fuzzer mutates from there.
// CI runs each target as a short smoke on every PR and for 60 seconds
// in the nightly scheduled job; `go test ./...` exercises just the
// seeds.

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/ryu"
)

// fuzzSeeds is one representative per fpfuzz generator class, as raw
// float64 bits.
var fuzzSeeds = []uint64{
	0x3FD5555555555555,                   // uniform-bits: 1/3
	math.Float64bits(1.0),                // binade edge: power of two
	math.Float64bits(1.0) | 1,            // binade edge: successor
	0x3FF << 52,                          // binade edge again, explicit
	(0x3FF << 52) | (1<<52 - 1),          // binade edge: all-ones mantissa
	1,                                    // smallest denormal
	0xFFFFFFFFFFFFF,                      // largest denormal
	math.Float64bits(5e-324),             // denormal, decimal form
	math.Float64bits(1e23),               // decimal neighbor: the paper's 1e23
	math.Float64bits(1e23) + 2,           // a few ulps up
	math.Float64bits(9.109383632e-31),    // decimal neighbor, small scale
	(0x3FF << 52) | ((1<<30 - 1) << 22),  // long-prefix: run of ones
	(0x3FF << 52) | ((1<<52 - 1) ^ 0xAB), // long-prefix: nines run
	math.Float64bits(math.MaxFloat64),    // extremes
	math.Float64bits(math.SmallestNonzeroFloat64),
	math.Float64bits(0.3), // short decimal
}

// sigDigits counts significant digits in a rendered decimal (the
// minimality metric fpverify uses).
func sigDigits(s string) int {
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		s = s[:i]
	}
	keep := strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' {
			return r
		}
		return -1
	}, s)
	keep = strings.Trim(keep, "0")
	if keep == "" {
		return 1
	}
	return len(keep)
}

// FuzzShortestRoundTrip checks, for any float64 bit pattern, that the
// shortest output round-trips bit-exactly through strconv, is never
// longer than strconv's own shortest form, and that our reader agrees
// with strconv's on strconv's rendering.
func FuzzShortestRoundTrip(f *testing.F) {
	for _, bits := range fuzzSeeds {
		f.Add(bits)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip()
		}
		s := Shortest(v)
		back, err := strconv.ParseFloat(s, 64)
		if err != nil || math.Float64bits(back) != math.Float64bits(v) {
			t.Fatalf("round-trip: v=%x %g printed %q read back %g err=%v",
				bits, v, s, back, err)
		}
		want := strconv.FormatFloat(v, 'e', -1, 64)
		if sigDigits(s) > sigDigits(want) {
			t.Fatalf("minimality: v=%x %q has more digits than strconv's %q", bits, s, want)
		}
		ours, err := Parse(want, nil)
		if err != nil || math.Float64bits(ours) != math.Float64bits(v) {
			t.Fatalf("parse agreement: v=%x strconv prints %q, our Parse reads %g err=%v",
				bits, want, ours, err)
		}
	})
}

// FuzzRyuVsStrconv differences the ryu backend against strconv's own
// Ryū implementation on every value the kernel serves: the digits and
// exponent must match strconv's shortest scientific form exactly.  On a
// decline the exact-core fallback must still round-trip — exact-halfway
// ties are precisely where the round-up core may legitimately render
// different digits than strconv's round-to-even, so byte comparison
// would be wrong there and round-trip identity is the real invariant.
//
// strconv knows only the nearest-even reader, so the kernel's other
// inputs are differenced against the exact core instead: the fuzzed bits
// under the three other nearest modes, and their low 32 bits as a
// float32 under all four, must render the same bytes with default
// options as with BackendExact.
func FuzzRyuVsStrconv(f *testing.F) {
	for _, bits := range fuzzSeeds {
		f.Add(bits)
	}
	// One exact-halfway decline representative so the fallback arm is
	// seeded too: 2.9802322387695312e-08 (2^-25) is a genuine tie where
	// round-to-even keeps ...12 but the exact core rounds up to ...13.
	f.Add(uint64(0x3e60000000000000))
	f.Fuzz(func(t *testing.T, bits uint64) {
		f32 := math.Float32frombits(uint32(bits))
		for _, mode := range []ReaderRounding{ReaderNearestEven, ReaderUnknown, ReaderNearestAway, ReaderNearestTowardZero} {
			auto, exact := &Options{Reader: mode}, &Options{Reader: mode, Backend: BackendExact}
			if mode != ReaderNearestEven {
				v := math.Float64frombits(bits)
				if got, want := fuzzFormat(ShortestDigits(v, auto)), fuzzFormat(ShortestDigits(v, exact)); got != want {
					t.Fatalf("mode %v: v=%x default %q, exact %q", mode, bits, got, want)
				}
			}
			if got, want := fuzzFormat(ShortestDigits32(f32, auto)), fuzzFormat(ShortestDigits32(f32, exact)); got != want {
				t.Fatalf("mode %v: float32 %x default %q, exact %q", mode, uint32(bits), got, want)
			}
		}

		v := math.Abs(math.Float64frombits(bits))
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			t.Skip()
		}
		var buf [ryu.BufLen]byte
		n, k, ok := ryu.ShortestInto(buf[:], v)
		if !ok {
			out := AppendShortest(nil, v)
			back, err := strconv.ParseFloat(string(out), 64)
			if err != nil || math.Float64bits(back) != math.Float64bits(v) {
				t.Fatalf("decline fallback: v=%x rendered %q, read back %g, err=%v",
					bits, out, back, err)
			}
			return
		}
		want := strconv.FormatFloat(v, 'e', -1, 64)
		mant, expPart, found := strings.Cut(want, "e")
		if !found {
			t.Fatalf("strconv %q has no exponent", want)
		}
		mant = strings.ReplaceAll(mant, ".", "")
		e, err := strconv.Atoi(expPart)
		if err != nil {
			t.Fatalf("strconv %q exponent: %v", want, err)
		}
		if got := string(buf[:n]); got != mant || k != e+1 {
			t.Fatalf("ryu vs strconv: v=%x ryu %q K=%d, strconv %q (digits %q K=%d)",
				bits, got, k, want, mant, e+1)
		}
	})
}

// fuzzFormat renders a ShortestDigits result, or its error, as one
// comparable string.
func fuzzFormat(d Digits, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return d.String()
}

// inCommonParseGrammar reports whether s lies in the intersection of
// this package's base-10 grammar and strconv.ParseFloat's: an optional
// sign, decimal digits with at most one point (at least one digit), and
// an optional e/E exponent of at most 7 decimal digits (both readers
// accept it without tripping internal caps; strconv also takes hex
// floats and underscores, the reader also takes '@' and '#', so the
// differential only runs where both grammars agree on what the string
// means).
func inCommonParseGrammar(s string) bool {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits, sawDot := 0, false
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			digits++
		case c == '.' && !sawDot:
			sawDot = true
		default:
			goto exponent
		}
	}
exponent:
	if digits == 0 {
		return false
	}
	if i == len(s) {
		return true
	}
	if s[i] != 'e' && s[i] != 'E' {
		return false
	}
	i++
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	expDigits := 0
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
		expDigits++
	}
	return expDigits >= 1 && expDigits <= 7
}

// FuzzParseVsStrconv differences Parse (base 10, nearest-even — the
// certified Eisel–Lemire fast path with exact fallback) against
// strconv.ParseFloat over the shared grammar: bit-identical values,
// and range errors on exactly the same inputs.
func FuzzParseVsStrconv(f *testing.F) {
	for _, bits := range fuzzSeeds {
		f.Add(strconv.FormatFloat(math.Float64frombits(bits), 'g', -1, 64))
	}
	for _, s := range []string{
		"1e23", "-1e23", "9007199254740993", "0.1", "-0", "1e309", "-1e309",
		"1e-325", "2.2250738585072011e-308", "4.9406564584124654e-324",
		"123456789012345678901234567890e-20", "00000000000000000000.3",
		"9999999999999999999999999999999999999999e-10", "1.e5", ".5e1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if !inCommonParseGrammar(s) {
			t.Skip()
		}
		want, werr := strconv.ParseFloat(s, 64)
		got, gerr := Parse(s, nil)
		if werr != nil {
			if !errors.Is(werr, strconv.ErrRange) {
				t.Fatalf("oracle rejects in-grammar input %q: %v", s, werr)
			}
			if !errors.Is(gerr, ErrRange) {
				t.Fatalf("Parse(%q): strconv reports range, we report %v", s, gerr)
			}
		} else if gerr != nil {
			t.Fatalf("Parse(%q) = %v, strconv accepts with %g", s, gerr, want)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Parse(%q) = %g (%#x), strconv = %g (%#x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// FuzzFixedVsExact checks that FixedDigits — Gay's certified fast path
// plus exact fallback — always equals the exact big-integer
// fixed-format algorithm, for any value and any digit count 1..17.
// A certified fast-path result that differed from the exact output
// would be the fast path lying, the one thing its certificate must
// make impossible.
func FuzzFixedVsExact(f *testing.F) {
	for i, bits := range fuzzSeeds {
		f.Add(bits, uint8(i+1))
	}
	f.Fuzz(func(t *testing.T, bits uint64, nRaw uint8) {
		n := int(nRaw)%17 + 1
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			t.Skip()
		}
		got, err := FixedDigits(v, n, nil)
		if err != nil {
			t.Fatalf("FixedDigits(%x, %d): %v", bits, n, err)
		}
		val := fpformat.DecodeFloat64(v)
		res, err := core.FixedFormatRelative(abs(val), 10, core.ReaderNearestEven, n)
		if err != nil {
			t.Fatalf("exact FixedFormatRelative(%x, %d): %v", bits, n, err)
		}
		want := fromResult(res, val.Neg, 10)
		if got.Class != want.Class || got.Neg != want.Neg ||
			got.K != want.K || got.NSig != want.NSig ||
			string(got.Digits) != string(want.Digits) {
			t.Fatalf("fixed(%x, n=%d): fast-path result %+v, exact %+v", bits, n, got, want)
		}
	})
}

// FuzzDirectedPrintVsExact differences the one-sided Ryū kernels against
// the exact one-sided core through the public dispatch, for any bit
// pattern and both bounds: the default options (fast-eligible) and the
// forced-exact backend must render identical bytes.  The outputs also
// get an enclosure sanity check — Below reads back ≤ v and Above ≥ v
// under strconv — so a coordinated bug in both paths still has to fight
// an independent oracle.
func FuzzDirectedPrintVsExact(f *testing.F) {
	for _, bits := range fuzzSeeds {
		f.Add(bits)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		exact := &Options{Backend: BackendExact}
		for _, above := range []bool{false, true} {
			get := ShortestBelowDigits
			if above {
				get = ShortestAboveDigits
			}
			fd, err := get(v, nil)
			if err != nil {
				t.Fatalf("directed(%x, above=%v): %v", bits, above, err)
			}
			ed, err := get(v, exact)
			if err != nil {
				t.Fatalf("exact directed(%x, above=%v): %v", bits, above, err)
			}
			if fd.String() != ed.String() {
				t.Fatalf("directed(%x, above=%v): fast %q, exact %q", bits, above, fd.String(), ed.String())
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			back, perr := strconv.ParseFloat(fd.String(), 64)
			if perr != nil {
				t.Fatalf("strconv rejects directed output %q: %v", fd.String(), perr)
			}
			if above && back < v || !above && back > v {
				t.Fatalf("enclosure: v=%x above=%v printed %q which reads back %g on the wrong side",
					bits, above, fd.String(), back)
			}
		}
	})
}

// FuzzParseVsExact differences the certified Eisel–Lemire fast path
// against the exact reader through the public Parse and Parse32
// dispatch, for arbitrary strings under all five reader modes:
// identical bits, identical error presence, identical error text.  Unlike FuzzParseVsStrconv it covers the
// grammar strconv lacks ('#' marks, '@' exponents, signed NaN), and its
// oracle shares no code with the fast paths.  Error identity is the
// load-bearing half — a fast path that truncates overflow onto
// MaxFloat64 but forgets ErrRange produces correct-looking values with
// the wrong contract.
func FuzzParseVsExact(f *testing.F) {
	for _, bits := range fuzzSeeds {
		f.Add(strconv.FormatFloat(math.Float64frombits(bits), 'g', -1, 64))
	}
	for _, s := range []string{
		"1e309", "-1e309", "1.7976931348623158e308", "5e-324", "1e-400",
		"9007199254740993", "123456789012345678901234567890e-20",
		"1#5", "12@-3", "inf", "nan", "1e", "..", "0.5", "7450580596923828125e-27",
		"100.000000000000000#####", "3.33###e2", "1@5", "-2.5@+2", "3.4028235e38",
		"-nan", "+NaN", "-Infinity", "+inf", "-INF",
		// Cases the kernel decides since it serves every mode: dyadic
		// ties, decimal ties, the binary32 overflow and normal frontiers.
		"4503599627370496.5", "524288.03125", "16777217", "-1e23",
		"3.4028235677973366e38", "1.1754943508222875e-38",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		same := func(fn string, mode ReaderRounding, fbits, ebits uint64, ferr, eerr error) {
			t.Helper()
			if fbits != ebits {
				t.Fatalf("%s(%q, %v): fast %#x, exact %#x", fn, s, mode, fbits, ebits)
			}
			if (ferr == nil) != (eerr == nil) {
				t.Fatalf("%s(%q, %v): fast err %v, exact err %v", fn, s, mode, ferr, eerr)
			}
			if ferr != nil && ferr.Error() != eerr.Error() {
				t.Fatalf("%s(%q, %v): error text diverged\nfast:  %q\nexact: %q",
					fn, s, mode, ferr.Error(), eerr.Error())
			}
		}
		for _, mode := range []ReaderRounding{
			ReaderNearestEven, ReaderNearestAway, ReaderNearestTowardZero, ReaderTowardNegInf, ReaderTowardPosInf,
		} {
			fast, exact := &Options{Reader: mode}, &Options{Reader: mode, Backend: BackendExact}
			fv, ferr := Parse(s, fast)
			ev, eerr := Parse(s, exact)
			same("Parse", mode, math.Float64bits(fv), math.Float64bits(ev), ferr, eerr)
			fv32, ferr := Parse32(s, fast)
			ev32, eerr := Parse32(s, exact)
			same("Parse32", mode, uint64(math.Float32bits(fv32)), uint64(math.Float32bits(ev32)), ferr, eerr)
		}
	})
}

// FuzzBatchParseVsParse feeds arbitrary byte streams through the
// block-at-a-time batch engine and the per-value oracle (BatchSep
// tokenization + the exact reader): the engines must agree
// on every value bit for bit, and on the first error's record index,
// byte offset, and message.  This is the whole-engine form of the SWAR
// kernel's subset contract — the block scanner may decline any token,
// but it may never certify a value, or locate a failure, differently
// from the per-value path.
func FuzzBatchParseVsParse(f *testing.F) {
	for _, bits := range fuzzSeeds {
		f.Add([]byte(strconv.FormatFloat(math.Float64frombits(bits), 'g', -1, 64) + "\n"))
	}
	for _, s := range []string{
		"1.5 2.5\nbogus\n3.5\n", "1,2\r\n3\t4 ", "1e999\n-1e999\n", "nan inf -inf",
		"", "\n\n,,  ", "00000000000000000000.3\n", "1234567890123456789012345\n",
		"3..4\n", "1\x002\n", "1e\n", "+ - .\n", "1#5\n12@-3\n",
		"9007199254740993,9007199254740993", "2.2250738585072011e-308 4.9e-324\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		assertBatchMatchesRef(t, data)
	})
}
