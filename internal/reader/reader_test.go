package reader

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"floatprint/internal/core"
	"floatprint/internal/fpformat"
)

// parseFloat64 reads the base-10 string s to the nearest float64 with
// ties-to-even through Parse; overflow gives ±Inf with ErrRange.
func parseFloat64(s string) (float64, error) {
	v, err := Parse(s, 10, fpformat.Binary64, NearestEven)
	if err != nil && v.Class != fpformat.Inf {
		return 0, err
	}
	f, ferr := v.Float64()
	if ferr != nil {
		return 0, ferr
	}
	return f, err
}

func TestParseFloat64AgainstStrconv(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "0.5", "3.14159265358979", "1e0", "1e1", "1e-1",
		"2.2250738585072014e-308", // smallest normal
		"2.2250738585072011e-308", // the famous PHP/Java hang value
		"4.9406564584124654e-324", // smallest denormal
		"2.4703282292062327e-324", // just below half the smallest denormal
		"2.4703282292062328e-324", // just above: rounds up to the denormal
		"1.7976931348623157e308",  // max double
		"1e23", "8.98846567431158e307", "0.000001", "123456789012345678901234567890",
		"9007199254740993",          // 2^53+1: exactly between two doubles
		"9007199254740993.00000001", // just above the midpoint
		"1.00000000000000011102230246251565404236316680908203125", // 1+2^-53 exactly (midpoint)
		"-0.0", "+17", "1.", ".25", "31415926535897932384626433832795e-31",
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		// Random digit strings with random exponents.
		nd := 1 + r.Intn(25)
		var sb strings.Builder
		if r.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		for j := 0; j < nd; j++ {
			sb.WriteByte(byte('0' + r.Intn(10)))
		}
		if r.Intn(2) == 0 {
			sb.WriteByte('.')
			for j := 0; j < 1+r.Intn(10); j++ {
				sb.WriteByte(byte('0' + r.Intn(10)))
			}
		}
		sb.WriteString("e")
		sb.WriteString(strconv.Itoa(r.Intn(640) - 320))
		cases = append(cases, sb.String())
	}
	for _, s := range cases {
		got, gotErr := parseFloat64(s)
		want, wantErr := strconv.ParseFloat(s, 64)
		if math.IsInf(want, 0) {
			if !math.IsInf(got, int(math.Copysign(1, want))) || gotErr != ErrRange || wantErr == nil {
				t.Errorf("parseFloat64(%q) = %v, %v; strconv = %v, %v", s, got, gotErr, want, wantErr)
			}
			continue
		}
		if gotErr != nil {
			t.Errorf("parseFloat64(%q) error: %v", s, gotErr)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("parseFloat64(%q) = %v (%x), strconv = %v (%x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestParseFloat64Denormals(t *testing.T) {
	// Sweep the whole denormal range: print with strconv, read back.
	for i := uint64(1); i < 1<<52; i = i*3 + 1 {
		v := math.Float64frombits(i)
		s := strconv.FormatFloat(v, 'e', -1, 64)
		got, err := parseFloat64(s)
		if err != nil || got != v {
			t.Fatalf("denormal %x: parseFloat64(%q) = %v, %v", i, s, got, err)
		}
	}
}

func TestParseTextSyntaxErrors(t *testing.T) {
	bad := []struct {
		s    string
		base int
	}{
		{"", 10}, {"-", 10}, {".", 10}, {"1.2.3", 10}, {"1e", 10}, {"1e+", 10},
		{"abc", 10}, {"1e5x", 10}, {"12@@3", 16}, {"1#2", 10}, {"g", 16},
		{"1e999999999999", 10}, {"5", 1}, {"5", 37},
	}
	for _, c := range bad {
		if _, err := ParseText(c.s, c.base); err == nil {
			t.Errorf("ParseText(%q, %d) unexpectedly succeeded", c.s, c.base)
		}
	}
}

func TestParseTextForms(t *testing.T) {
	cases := []struct {
		s    string
		base int
		neg  bool
		k    int
		num  string // digits as values, rendered 0-9a-z
	}{
		{"123", 10, false, 3, "123"},
		{"12.5", 10, false, 2, "125"},
		{"-0.001", 10, true, 1, "0001"}, // 0.0001 × 10¹
		{"1.5e3", 10, false, 4, "15"},
		{"1.5E-3", 10, false, -2, "15"},
		{"ff.8", 16, false, 2, "ff8"},
		{"FF.8@1", 16, false, 3, "ff8"},
		{"101.1", 2, false, 3, "1011"},
		{"3.33###", 10, false, 1, "333000"},
		{"+7", 10, false, 1, "7"},
		{"1.", 10, false, 1, "1"},
		{".25", 10, false, 0, "25"},
	}
	for _, c := range cases {
		n, err := ParseText(c.s, c.base)
		if err != nil {
			t.Errorf("ParseText(%q, %d): %v", c.s, c.base, err)
			continue
		}
		var sb strings.Builder
		for _, d := range n.Digits {
			sb.WriteByte("0123456789abcdefghijklmnopqrstuvwxyz"[d])
		}
		if n.Neg != c.neg || n.K != c.k || sb.String() != c.num {
			t.Errorf("ParseText(%q, %d) = neg=%v K=%d digits=%q, want neg=%v K=%d digits=%q",
				c.s, c.base, n.Neg, n.K, sb.String(), c.neg, c.k, c.num)
		}
	}
}

func TestConvertZeroAndErrors(t *testing.T) {
	v, err := Convert(Number{Base: 10, Digits: []byte{0, 0}, K: 5}, fpformat.Binary64, NearestEven)
	if err != nil || v.Class != fpformat.Zero {
		t.Errorf("zero digits: %v, %v", v.Class, err)
	}
	if _, err := Convert(Number{Base: 1}, fpformat.Binary64, NearestEven); err == nil {
		t.Errorf("base 1 accepted")
	}
	if _, err := Convert(Number{Base: 10, Digits: []byte{11}}, fpformat.Binary64, NearestEven); err == nil {
		t.Errorf("digit 11 accepted in base 10")
	}
}

func TestConvertOverflowUnderflow(t *testing.T) {
	v, err := Parse("1e309", 10, fpformat.Binary64, NearestEven)
	if err != ErrRange || v.Class != fpformat.Inf || v.Neg {
		t.Errorf("1e309: %v, %v", v.Class, err)
	}
	v, err = Parse("-1e309", 10, fpformat.Binary64, NearestEven)
	if err != ErrRange || v.Class != fpformat.Inf || !v.Neg {
		t.Errorf("-1e309: %v, %v", v.Class, err)
	}
	v, err = Parse("1e-400", 10, fpformat.Binary64, NearestEven)
	if err != nil || v.Class != fpformat.Zero {
		t.Errorf("1e-400: %v, %v", v.Class, err)
	}
	// Exactly half the smallest denormal (2⁻¹⁰⁷⁵, generated exactly) ties
	// to even, which is zero.
	half := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 1075)).FloatString(1100)
	v, err = Parse(half, 10, fpformat.Binary64, NearestEven)
	if err != nil || v.Class != fpformat.Zero {
		t.Errorf("half smallest denormal (tie to even): %v, %v", v.Class, err)
	}
	// The same tie rounds up under ties-away.
	v, err = Parse(half, 10, fpformat.Binary64, NearestAway)
	if err != nil || v.Class != fpformat.Denormal {
		t.Errorf("half smallest denormal under ties-away: %v, %v", v.Class, err)
	}
}

func TestRoundModesAtMidpoint(t *testing.T) {
	// 1 + 2^-53 is exactly between 1 and 1+2^-52.
	mid := "1.00000000000000011102230246251565404236316680908203125"
	even, err := parseFloat64(mid)
	if err != nil || even != 1.0 {
		t.Errorf("midpoint nearest-even = %v (%v), want 1", even, err)
	}
	v, err := Parse(mid, 10, fpformat.Binary64, NearestAway)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := v.Float64()
	if f != math.Nextafter(1, 2) {
		t.Errorf("midpoint nearest-away = %v, want 1+ulp", f)
	}
	v, err = Parse(mid, 10, fpformat.Binary64, NearestTowardZero)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ = v.Float64(); f != 1.0 {
		t.Errorf("midpoint toward-zero = %v, want 1", f)
	}
	// Midpoint between 1-ulp/2 and 1 (odd lower mantissa): even rounds up.
	mid2 := "0.999999999999999944488848768742172978818416595458984375"
	f, err = parseFloat64(mid2)
	if err != nil || f != 1.0 {
		t.Errorf("lower midpoint nearest-even = %v, want 1", f)
	}
}

// TestPrintParseRoundTripAllModes closes the paper's loop: printing with
// reader mode M and parsing with the matching rounding mode M must recover
// the value exactly, for all modes and several bases — including the cases
// where the printer deliberately lands on a rounding-range endpoint.
func TestPrintParseRoundTripAllModes(t *testing.T) {
	pairs := []struct {
		pm core.ReaderMode
		rm RoundMode
	}{
		{core.ReaderNearestEven, NearestEven},
		{core.ReaderNearestAway, NearestAway},
		{core.ReaderNearestTowardZero, NearestTowardZero},
		// Conservative printing round-trips under every reader.
		{core.ReaderUnknown, NearestEven},
		{core.ReaderUnknown, NearestAway},
		{core.ReaderUnknown, NearestTowardZero},
	}
	bases := []int{2, 3, 10, 16, 36}
	r := rand.New(rand.NewSource(2))
	values := []float64{1, 0.1, 1e23, 5e-324, math.MaxFloat64, 0x1p-1022, math.Pi}
	for i := 0; i < 400; i++ {
		x := math.Float64frombits(r.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			continue
		}
		values = append(values, math.Abs(x))
	}
	for _, x := range values {
		val := fpformat.DecodeFloat64(x)
		for _, base := range bases {
			for _, pair := range pairs {
				res, err := core.FreeFormat(val, base, core.ScalingEstimate, pair.pm)
				if err != nil {
					t.Fatal(err)
				}
				back, err := Convert(Number{Base: base, Digits: res.Digits, K: res.K}, fpformat.Binary64, pair.rm)
				if err != nil {
					t.Fatalf("Convert(%g, base %d): %v", x, base, err)
				}
				f, err := back.Float64()
				if err != nil {
					t.Fatal(err)
				}
				if f != x {
					t.Fatalf("print(%v)/parse(%v) base %d: %g -> %g", pair.pm, pair.rm, base, x, f)
				}
			}
		}
	}
}

// TestReaderRejectsNonMatchingMode demonstrates why the printer must know
// the reader: 1e23 printed for a nearest-even reader does NOT survive a
// ties-away reader.
func TestReaderRejectsNonMatchingMode(t *testing.T) {
	x := 1e23
	res, err := core.FreeFormat(fpformat.DecodeFloat64(x), 10, core.ScalingEstimate, core.ReaderNearestEven)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Convert(Number{Base: 10, Digits: res.Digits, K: res.K}, fpformat.Binary64, NearestAway)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := back.Float64()
	if f == x {
		t.Fatalf("expected mismatch reading %q with ties-away", "1e23")
	}
	if f != math.Nextafter(x, math.Inf(1)) {
		t.Fatalf("ties-away read of 1e23 = %g, want the next double up", f)
	}
}

func TestParseOtherFormats(t *testing.T) {
	// binary32 via our reader matches strconv's 32-bit parsing.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1500; i++ {
		var sb strings.Builder
		for j := 0; j < 1+r.Intn(12); j++ {
			sb.WriteByte(byte('0' + r.Intn(10)))
		}
		sb.WriteString("e")
		sb.WriteString(strconv.Itoa(r.Intn(90) - 45))
		s := sb.String()
		want, werr := strconv.ParseFloat(s, 32)
		v, err := Parse(s, 10, fpformat.Binary32, NearestEven)
		if werr != nil {
			if err == nil {
				t.Errorf("Parse(%q) should overflow", s)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		f, err := v.Float32()
		if err != nil {
			t.Fatal(err)
		}
		if f != float32(want) {
			t.Errorf("Parse(%q) binary32 = %v, strconv = %v", s, f, float32(want))
		}
	}
	// binary16: 65504 is the max; 65520 rounds to +Inf.
	v, err := Parse("65504", 10, fpformat.Binary16, NearestEven)
	if err != nil || v.Class != fpformat.Normal {
		t.Errorf("65504 binary16: %v %v", v.Class, err)
	}
	if _, err := Parse("65520", 10, fpformat.Binary16, NearestEven); err != ErrRange {
		t.Errorf("65520 binary16 should overflow, got %v", err)
	}
}

// TestRoundsUpTable checks the packed rounding rule against the modes'
// definitions, for every class, sign and parity: an exact value is
// kept, a directed mode grows every inexact magnitude of the sign it
// points away from zero, and a nearest mode goes up above half and at
// half by its tie rule.
func TestRoundsUpTable(t *testing.T) {
	for _, mode := range []RoundMode{NearestEven, NearestAway, NearestTowardZero, TowardNegInf, TowardPosInf} {
		for c := Zero; c <= AboveHalf; c++ {
			for _, neg := range []bool{false, true} {
				for _, odd := range []bool{false, true} {
					var want bool
					switch {
					case c == Zero:
					case mode == TowardNegInf:
						want = neg
					case mode == TowardPosInf:
						want = !neg
					case c == AboveHalf:
						want = true
					case c == Half:
						want = mode == NearestAway || mode == NearestEven && odd
					}
					if got := RoundsUp(c, mode, neg, odd); got != want {
						t.Errorf("RoundsUp(class %d, %v, neg %v, odd %v) = %v, want %v", c, mode, neg, odd, got, want)
					}
				}
			}
		}
	}
}

func TestRoundModeString(t *testing.T) {
	for m, want := range map[RoundMode]string{
		NearestEven: "nearest-even", NearestAway: "nearest-away",
		NearestTowardZero: "nearest-toward-zero", RoundMode(7): "RoundMode(7)",
	} {
		if m.String() != want {
			t.Errorf("RoundMode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestParseHashMarksReadAsZeros(t *testing.T) {
	f1, err := parseFloat64("100.000000000000000#####")
	if err != nil || f1 != 100 {
		t.Errorf("hash-marked 100 = %v (%v)", f1, err)
	}
	f2, err := parseFloat64("3.33###e2")
	if err != nil || f2 != 333 {
		t.Errorf("3.33###e2 = %v (%v), want 333", f2, err)
	}
}

// TestBinadeBoundaryRoundUp is the regression test for a bug found by
// cmd/fpfuzz: a decimal string denoting a value just below a binade
// boundary (mantissa all ones) whose correctly rounded result is the
// all-ones mantissa must not be quantized at the coarser grain of the
// binade above.  0x093fffffffffffff is one such double.
func TestBinadeBoundaryRoundUp(t *testing.T) {
	cases := []uint64{
		0x093fffffffffffff, 0x0eafffffffffffff,
		0x000fffffffffffff, // largest denormal: boundary with the normals
		0x7fefffffffffffff, // largest finite
	}
	for _, bits := range cases {
		v := math.Float64frombits(bits)
		s := strconv.FormatFloat(v, 'e', -1, 64)
		got, err := parseFloat64(s)
		if err != nil || math.Float64bits(got) != bits {
			t.Errorf("parseFloat64(%q) = %x (%v), want %x", s, math.Float64bits(got), err, bits)
		}
		// And one ulp above, which lands exactly on the boundary.
		up := math.Nextafter(v, math.Inf(1))
		if math.IsInf(up, 0) {
			continue
		}
		su := strconv.FormatFloat(up, 'e', -1, 64)
		gotUp, err := parseFloat64(su)
		if err != nil || gotUp != up {
			t.Errorf("parseFloat64(%q) = %v (%v), want %v", su, gotUp, err, up)
		}
	}
}

// TestAllOnesMantissaSweep covers every binade's top value, the shape the
// fuzzer used to find the boundary bug.
func TestAllOnesMantissaSweep(t *testing.T) {
	for be := uint64(0); be <= 2046; be += 13 {
		bits := be<<52 | (1<<52 - 1)
		v := math.Float64frombits(bits)
		if v == 0 || math.IsInf(v, 0) {
			continue
		}
		s := strconv.FormatFloat(v, 'e', -1, 64)
		got, err := parseFloat64(s)
		if err != nil || math.Float64bits(got) != bits {
			t.Fatalf("all-ones be=%d: parseFloat64(%q) = %x, want %x",
				be, s, math.Float64bits(got), bits)
		}
	}
}

// TestAstronomicalExponents pins the O(1) magnitude pre-check: inputs
// whose exponent alone decides the result must finish in bounded time
// with the same ±Inf/±0 the exact path would reach, instead of raising
// the base to a multi-megabit power first (a 4-minute stall at
// e=16777215 before the check existed — a denial of service the batch
// parse engine would have inherited from a single hostile token).
func TestAstronomicalExponents(t *testing.T) {
	deadline := time.Now().Add(5 * time.Second)
	for _, c := range []struct {
		in    string
		class fpformat.Class
		neg   bool
		err   error
	}{
		{"1e16777215", fpformat.Inf, false, ErrRange},
		{"-2.01e16777215", fpformat.Inf, true, ErrRange},
		{"9e2250738", fpformat.Inf, false, ErrRange},
		{"1e-16777215", fpformat.Zero, false, nil},
		{"-1e-2250738", fpformat.Zero, true, nil},
		{"0.00000001e16000000", fpformat.Inf, false, ErrRange},
	} {
		v, err := Parse(c.in, 10, fpformat.Binary64, NearestEven)
		if err != c.err || v.Class != c.class || v.Neg != c.neg {
			t.Errorf("Parse(%q) = class %v neg %v err %v, want %v %v %v",
				c.in, v.Class, v.Neg, err, c.class, c.neg, c.err)
		}
	}
	if time.Now().After(deadline) {
		t.Fatal("astronomical exponents took seconds: the magnitude pre-check is not engaging")
	}
	// Near-threshold exponents still go through the exact path and keep
	// their precise boundary behavior.
	for _, c := range []struct {
		in    string
		class fpformat.Class
		err   error
	}{
		{"1.7976931348623157e308", fpformat.Normal, nil},
		{"1.7976931348623159e308", fpformat.Inf, ErrRange},
		{"1e309", fpformat.Inf, ErrRange},
		{"4.9e-324", fpformat.Denormal, nil},
		{"1e-324", fpformat.Zero, nil},
	} {
		v, err := Parse(c.in, 10, fpformat.Binary64, NearestEven)
		if err != c.err || v.Class != c.class {
			t.Errorf("Parse(%q) = class %v err %v, want %v %v", c.in, v.Class, err, c.class, c.err)
		}
	}
}
