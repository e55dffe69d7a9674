package fastparse

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"floatprint/internal/fpformat"
	"floatprint/internal/reader"
)

// TestPow10TableOracle regenerates the table with math/big and compares
// every entry: for q ≥ 0 the top 128 bits of 5^q truncated, for q < 0
// the rounded-up 128-bit reciprocal of 5^-q.
func TestPow10TableOracle(t *testing.T) {
	for q := minExp10; q <= maxExp10; q++ {
		five := new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(abs(q))), nil)
		want := new(big.Int)
		if q >= 0 {
			l := five.BitLen()
			if l <= 128 {
				want.Lsh(five, uint(128-l))
			} else {
				want.Rsh(five, uint(l-128))
			}
		} else {
			num := new(big.Int).Lsh(big.NewInt(1), uint(127+five.BitLen()))
			rem := new(big.Int)
			want.DivMod(num, five, rem)
			if rem.Sign() != 0 {
				want.Add(want, big.NewInt(1))
			}
		}
		var got big.Int
		got.Lsh(new(big.Int).SetUint64(pow10[q-minExp10][1]), 64)
		got.Add(&got, new(big.Int).SetUint64(pow10[q-minExp10][0]))
		if got.Cmp(want) != 0 {
			t.Fatalf("pow10[%d]: got %s, want %s", q, got.Text(16), want.Text(16))
		}
		if pow10[q-minExp10][1]>>63 != 1 {
			t.Fatalf("pow10[%d] not normalized: hi=%#x", q, pow10[q-minExp10][1])
		}
	}
}

func abs(q int) int {
	if q < 0 {
		return -q
	}
	return q
}

// TestPow10KnownEntries pins the canonical spot values every published
// table shares.
func TestPow10KnownEntries(t *testing.T) {
	for _, tc := range []struct {
		q      int
		lo, hi uint64
	}{
		{0, 0x0000000000000000, 0x8000000000000000},
		{1, 0x0000000000000000, 0xA000000000000000},
		{-1, 0xCCCCCCCCCCCCCCCD, 0xCCCCCCCCCCCCCCCC},
		{23, 0x0000000000000000, 0xA968163F0A57B400},
		{-27, 0x775EA264CF55347E, 0x9E74D1B791E07E48},
	} {
		got := pow10[tc.q-minExp10]
		if got[0] != tc.lo || got[1] != tc.hi {
			t.Errorf("pow10[%d] = {%#x, %#x}, want {%#x, %#x}",
				tc.q, got[0], got[1], tc.lo, tc.hi)
		}
	}
}

// TestParse64VsStrconv runs the certified fast path against
// strconv.ParseFloat on handpicked and random literals.  Whenever the
// fast path claims ok, the bits must match; known-easy inputs must not
// decline.
func TestParse64VsStrconv(t *testing.T) {
	mustHit := []string{
		"0", "-0", "1", "-1", "10", "0.5", "0.1", "-0.3", "3.14159",
		"9.999999999999999e22", "1.0000000000000001e23",
		"2.2250738585072014e-308", "1.7976931348623157e308",
		"123456789012345678", "1.8446744073709552e19",
		"6.62607015e-34", "+42",
	}
	for _, s := range mustHit {
		f, _, ok := Parse64(s)
		if !ok {
			t.Errorf("Parse64(%q) declined, want certify", s)
			continue
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("oracle rejects %q: %v", s, err)
		}
		if math.Float64bits(f) != math.Float64bits(want) {
			t.Errorf("Parse64(%q) = %v (%#x), want %v (%#x)",
				s, f, math.Float64bits(f), want, math.Float64bits(want))
		}
	}
	// '#' marks are outside the scanner's grammar: the exact reader
	// reads them (the root package's TestParseMarkedLiterals pins the
	// values).
	for _, s := range []string{"100.000000000000000#####", "1#", "12.5##", "#"} {
		if _, _, ok := Parse64(s); ok {
			t.Errorf("Parse64(%q) certified, want decline", s)
		}
	}

	rng := rand.New(rand.NewSource(5))
	certified := 0
	const n = 200000
	for i := 0; i < n; i++ {
		s := randomLiteral(rng)
		f, _, ok := Parse64(s)
		if !ok {
			continue
		}
		certified++
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("Parse64(%q) certified but oracle rejects: %v", s, err)
		}
		if math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("Parse64(%q) = %v (%#x), want %v (%#x)",
				s, f, math.Float64bits(f), want, math.Float64bits(want))
		}
	}
	if certified < n/2 {
		t.Errorf("fast path certified only %d/%d random literals", certified, n)
	}
}

// TestParse32VsStrconv mirrors the 64-bit differential at single
// precision, where double rounding through float64 would show.
func TestParse32VsStrconv(t *testing.T) {
	mustHit := []string{
		"0", "-0", "1", "0.1", "3.4028235e38", "1.1754944e-38",
		"7.038531e-26", // the classic float32 double-rounding witness
		"1.5", "-2.5e-1",
	}
	for _, s := range mustHit {
		f, _, ok := Read32(s, reader.NearestEven)
		if !ok {
			t.Errorf("Read32(%q) declined, want certify", s)
			continue
		}
		want64, err := strconv.ParseFloat(s, 32)
		if err != nil {
			t.Fatalf("oracle rejects %q: %v", s, err)
		}
		if math.Float32bits(f) != math.Float32bits(float32(want64)) {
			t.Errorf("Read32(%q) = %v (%#x), want %v (%#x)",
				s, f, math.Float32bits(f), float32(want64), math.Float32bits(float32(want64)))
		}
	}

	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100000; i++ {
		s := randomLiteral(rng)
		f, _, ok := Read32(s, reader.NearestEven)
		if !ok {
			continue
		}
		want64, err := strconv.ParseFloat(s, 32)
		if err != nil {
			t.Fatalf("Read32(%q) certified but oracle rejects: %v", s, err)
		}
		if math.Float32bits(f) != math.Float32bits(float32(want64)) {
			t.Fatalf("Read32(%q) = %#x, want %#x",
				s, math.Float32bits(f), math.Float32bits(float32(want64)))
		}
	}
}

// TestParseDeclines pins the decline contract: syntax the exact reader
// would reject, exponents past its cap or outside the table, and
// overflowing magnitudes must all come back ok=false, never a wrong
// certify.  Exact round-to-even ties and subnormal results are the
// kernel's to decide.
func TestParseDeclines(t *testing.T) {
	for _, s := range []string{
		"", "+", "-", ".", "+.", "e5", ".e5", "1e", "1e+", "1e-",
		"1..2", "1.2.3", "#1", "1#2", "0x12", "1_000", " 1", "1 ",
		"abc", "inf", "nan", "1e2e3", "1@2@3", "1e99999999",
		"1e400", "1e-400", // out of table: exact reader decides range
		"1e16777217", // past the reader's exponent cap
		"1e-349",     // just below the table
		"1.9e308",    // overflow into +Inf
		"2.5e-1#x",
		"1,5", "1\n2", "1\t", // a separator inside the string
	} {
		if _, _, ok := Parse64(s); ok {
			t.Errorf("Parse64(%q) certified, want decline", s)
		}
		if _, _, ok := Read32(s, reader.NearestEven); ok {
			t.Errorf("Read32(%q) certified, want decline", s)
		}
	}
	// Exact round-to-even ties certify, at the precision where they are
	// ties, with the exact reader's value: 2⁵³+1 and the famous 1e23 are
	// halfway between two binary64 values, and 2²⁴+1 is the binary32
	// twin.
	for _, s := range []string{"9007199254740993", "1e23", "-1e23"} {
		f, _, ok := Parse64(s)
		if want := exactValue(t, s, fpformat.Binary64, reader.NearestEven); !ok || f != want {
			t.Errorf("Parse64(%q) = %v, %v; want the exact reader's %v", s, f, ok, want)
		}
	}
	f, _, ok := Read32("16777217", reader.NearestEven)
	if want := float32(exactValue(t, "16777217", fpformat.Binary32, reader.NearestEven)); !ok || f != want {
		t.Errorf(`Read32("16777217") = %v, %v; want the exact reader's %v`, f, ok, want)
	}
}

// TestParseTruncatedLongInputs drives >19-digit significands, where the
// fast path must prove both truncation endpoints round identically, and
// pins the reported digit count: significant digits, capped at the 19
// the significand holds.
func TestParseTruncatedLongInputs(t *testing.T) {
	for _, c := range []struct {
		s  string
		nd int
	}{
		{"-0.0", 0}, {"0.000123", 3}, {"120", 3}, {"1234567890123456789", 19},
		{"1.2345678901234567890123", 19}, {"00012345678901234567890123e-30", 19},
		{"0.0000012345678901234567890123", 19},
	} {
		_, nd, ok := Parse64(c.s)
		_, ndd, dok := ParseDirected64(c.s, true)
		if !ok || !dok || nd != c.nd || ndd != c.nd {
			t.Errorf("Parse64(%q) digits %d (ok %v), ParseDirected64 digits %d (ok %v); want %d",
				c.s, nd, ok, ndd, dok, c.nd)
		}
	}

	cases := []string{
		"123456789012345678901234567890",
		"0.33333333333333333333333333333333",
		"9999999999999999999999999999e-10",
		"10000000000000000000000000000000001",
		"2.5000000000000000000000000000000001",
		"7.2057594037927933e16",
		"0.000000000000000000000000000000000000000000001234567890123456789012345",
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for j := 0; j < 25+rng.Intn(15); j++ {
			sb.WriteByte(byte('0' + rng.Intn(10)))
		}
		cases = append(cases, fmt.Sprintf("%s.%de%d", sb.String(), rng.Intn(1000), rng.Intn(60)-30))
	}
	for _, s := range cases {
		f, _, ok := Parse64(s)
		if !ok {
			continue
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("oracle rejects %q: %v", s, err)
		}
		if math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("Parse64(%q) = %#x, want %#x", s, math.Float64bits(f), math.Float64bits(want))
		}
	}
}

// TestNegativeZero checks the sign of zero survives every zero spelling
// the scanner accepts; the marked "-0.#" is the exact reader's.
func TestNegativeZero(t *testing.T) {
	if _, _, ok := Parse64("-0.#"); ok {
		t.Error(`Parse64("-0.#") certified, want decline`)
	}
	if _, _, ok := Read32("-0.#", reader.NearestEven); ok {
		t.Error(`Read32("-0.#") certified, want decline`)
	}
	for _, s := range []string{"-0", "-0.0", "-0e10", "-0.00000e-20", "-.0"} {
		f, _, ok := Parse64(s)
		if !ok {
			t.Errorf("Parse64(%q) declined", s)
			continue
		}
		if math.Float64bits(f) != 1<<63 {
			t.Errorf("Parse64(%q) = %#x, want negative zero", s, math.Float64bits(f))
		}
		f32, _, ok := Read32(s, reader.NearestEven)
		if !ok {
			t.Errorf("Read32(%q) declined", s)
			continue
		}
		if math.Float32bits(f32) != 1<<31 {
			t.Errorf("Read32(%q) = %#x, want negative zero", s, math.Float32bits(f32))
		}
	}
}

// randomLiteral emits a literal from the shared base-10 grammar, biased
// toward the interesting regimes: short/long significands, deep
// fractions, exponents across the full table span.
func randomLiteral(rng *rand.Rand) string {
	var sb strings.Builder
	if rng.Intn(2) == 0 {
		sb.WriteByte('-')
	}
	nd := 1 + rng.Intn(21)
	dot := -1
	if rng.Intn(4) > 0 {
		dot = rng.Intn(nd)
	}
	for i := 0; i < nd; i++ {
		if i == dot {
			sb.WriteByte('.')
		}
		sb.WriteByte(byte('0' + rng.Intn(10)))
	}
	if rng.Intn(2) == 0 {
		sb.WriteByte('e')
		if rng.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		fmt.Fprintf(&sb, "%d", rng.Intn(330))
	}
	return sb.String()
}

func BenchmarkParse64(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	strs := make([]string, 1024)
	for i := range strs {
		strs[i] = strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)), 'g', -1, 64)
	}
	// Shortest renderings of normal values all certify, so more than a
	// stray decline means a broken scanner or kernel.
	declined := 0
	for _, s := range strs {
		if _, _, ok := Parse64(s); !ok {
			declined++
		}
	}
	if declined > len(strs)/100 {
		b.Fatalf("Parse64 declined %d of %d shortest renderings", declined, len(strs))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Parse64(strs[i&1023])
	}
}
