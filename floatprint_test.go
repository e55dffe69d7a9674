package floatprint

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestShortestKnownStrings(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0.3, "0.3"},
		{1e23, "1e23"},
		{math.Pi, "3.141592653589793"},
		{1.0, "1"},
		{-1.5, "-1.5"},
		{100.0, "100"},
		{0.1, "0.1"},
		{5e-324, "5e-324"},
		{math.MaxFloat64, "1.7976931348623157e308"},
		{0, "0"},
		{math.Copysign(0, -1), "-0"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
		{1e21, "1e21"}, // K=22: first scientific K
		{1e20, "100000000000000000000"},
		{0.001, "0.001"},
		{0.0001, "0.0001"}, // K=-3: last positional scale, like %g
		{0.00001, "1e-5"},
		{1234.5678, "1234.5678"},
	}
	for _, c := range cases {
		if got := Shortest(c.v); got != c.want {
			t.Errorf("Shortest(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestShortestMatchesStrconvSemantics(t *testing.T) {
	// Same digits and exponent as strconv's shortest form (rendering
	// differs cosmetically), verified by parsing back and by digit count.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		v := math.Float64frombits(r.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		s := Shortest(v)
		back, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("strconv cannot parse Shortest(%g) = %q: %v", v, s, err)
		}
		if math.Float64bits(back) != math.Float64bits(v) {
			t.Fatalf("Shortest(%g) = %q parses to %g", v, s, back)
		}
		want := strconv.FormatFloat(v, 'g', -1, 64)
		if countDigits(s) > countDigits(want) {
			t.Fatalf("Shortest(%g) = %q has more digits than strconv's %q", v, s, want)
		}
	}
}

// countDigits counts significant mantissa digits, so positional and
// scientific renderings of the same value compare equal.
func countDigits(s string) int {
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		s = s[:i]
	}
	var digits []byte
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			digits = append(digits, s[i])
		}
	}
	t := strings.Trim(string(digits), "0")
	if t == "" {
		return 1
	}
	return len(t)
}

func TestShortest32(t *testing.T) {
	cases := []struct {
		v    float32
		want string
	}{
		{0.1, "0.1"},
		{1.0 / 3.0, "0.33333334"},
		{16777216, "16777216"}, // 2^24
	}
	for _, c := range cases {
		if got := Shortest32(c.v); got != c.want {
			t.Errorf("Shortest32(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		v := math.Float32frombits(r.Uint32())
		if v != v || math.IsInf(float64(v), 0) {
			continue
		}
		s := Shortest32(v)
		back, err := strconv.ParseFloat(s, 32)
		if err != nil || float32(back) != v {
			t.Fatalf("Shortest32(%g) = %q round-trip failed (%v)", v, s, err)
		}
	}
}

func TestAppendShortest(t *testing.T) {
	buf := AppendShortest([]byte("x="), 2.5)
	if string(buf) != "x=2.5" {
		t.Errorf("AppendShortest = %q", buf)
	}
}

func TestFixedStrings(t *testing.T) {
	cases := []struct {
		v    float64
		n    int
		want string
	}{
		{math.Pi, 4, "3.142"},
		{9.97, 2, "10"},
		{100, 5, "100.00"},
		{0.00125, 2, "0.0013"},
		{1.0 / 3.0, 5, "0.33333"},
		{0, 4, "0.000"},
	}
	for _, c := range cases {
		if got := Fixed(c.v, c.n); got != c.want {
			t.Errorf("Fixed(%v, %d) = %q, want %q", c.v, c.n, got, c.want)
		}
	}
}

func TestFixedPositionStrings(t *testing.T) {
	cases := []struct {
		v    float64
		pos  int
		want string
	}{
		{math.Pi, -2, "3.14"},
		{1234.5678, -2, "1234.57"},
		{1234.5678, 0, "1235"},
		{1234.5678, 2, "1200"},
		{949, 3, "1000"},
		{5, 2, "0"},
		{80, 2, "100"},
		{0, -3, "0.000"},
	}
	for _, c := range cases {
		if got := FixedPosition(c.v, c.pos); got != c.want {
			t.Errorf("FixedPosition(%v, %d) = %q, want %q", c.v, c.pos, got, c.want)
		}
	}
}

func TestFixedMarksExamples(t *testing.T) {
	// The paper's examples: insignificant digits render as '#'.
	got := FixedPosition(100.0, -20)
	want := "100." + strings.Repeat("0", 15) + strings.Repeat("#", 5)
	if got != want {
		t.Errorf("FixedPosition(100, -20) = %q, want %q", got, want)
	}
	d, err := FixedDigits32(float32(1.0)/3, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := d.String(); s != "0.33333334##" {
		t.Errorf("float32 third at 10 digits = %q", s)
	}
	// NoMarks renders zeros instead.
	s, err := FormatFixedPosition(100.0, -20, &Options{NoMarks: true})
	if err != nil {
		t.Fatal(err)
	}
	if s != "100."+strings.Repeat("0", 20) {
		t.Errorf("NoMarks rendering = %q", s)
	}
}

func TestFormatBases(t *testing.T) {
	cases := []struct {
		v    float64
		base int
		want string
	}{
		{255, 16, "ff"},
		{0.5, 2, "0.1"},
		{10, 16, "a"},
		{1295, 36, "zz"},
		{0.625, 2, "0.101"},
	}
	for _, c := range cases {
		got, err := Format(c.v, &Options{Base: c.base})
		if err != nil {
			t.Fatalf("Format(%v, base %d): %v", c.v, c.base, err)
		}
		if got != c.want {
			t.Errorf("Format(%v, base %d) = %q, want %q", c.v, c.base, got, c.want)
		}
	}
	// Scientific in bases over 10 uses '@' (since 'e' is a digit).
	got, err := Format(math.Ldexp(1, 100), &Options{Base: 16, Notation: NotationScientific})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "@") {
		t.Errorf("base-16 scientific %q should use '@'", got)
	}
}

func TestFormatErrors(t *testing.T) {
	if _, err := Format(1.5, &Options{Base: 1}); err == nil {
		t.Errorf("base 1 accepted")
	}
	if _, err := Format(1.5, &Options{Base: 37}); err == nil {
		t.Errorf("base 37 accepted")
	}
	if _, err := FormatFixed(1.5, 0, nil); err == nil {
		t.Errorf("0 digits accepted")
	}
	if _, err := Parse("1", &Options{Base: 99}); err == nil {
		t.Errorf("Parse base 99 accepted")
	}
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		s    string
		want float64
	}{
		{"0.3", 0.3},
		{"1e23", 1e23},
		{"-2.5", -2.5},
		{"100.000000000000000#####", 100},
		{"3.141592653589793", math.Pi},
		{"0", 0},
	}
	for _, c := range cases {
		got, err := Parse(c.s, nil)
		if err != nil || got != c.want {
			t.Errorf("Parse(%q) = %v, %v; want %v", c.s, got, err, c.want)
		}
	}
	// A signed NaN reads as NaN, where strconv.ParseFloat rejects it.
	for _, s := range []string{"NaN", "nan", "-NAN", "-nan", "+NaN"} {
		if got, err := Parse(s, nil); err != nil || !math.IsNaN(got) {
			t.Errorf("Parse(%q) = %v, %v", s, got, err)
		}
	}
	for _, c := range []struct {
		s    string
		sign int
	}{{"Inf", 1}, {"+Infinity", 1}, {"-inf", -1}} {
		if got, err := Parse(c.s, nil); err != nil || !math.IsInf(got, c.sign) {
			t.Errorf("Parse(%q) = %v, %v", c.s, got, err)
		}
	}
	if got, err := Parse("1e999", nil); !errors.Is(err, ErrRange) || !math.IsInf(got, 1) {
		t.Errorf("Parse(1e999) = %v, %v", got, err)
	}
	if _, err := Parse("bogus", nil); err == nil {
		t.Errorf("Parse(bogus) accepted")
	}
}

func TestParse32(t *testing.T) {
	got, err := Parse32("0.1", nil)
	if err != nil || got != float32(0.1) {
		t.Errorf("Parse32(0.1) = %v, %v", got, err)
	}
	if got, err := Parse32("1e39", nil); !errors.Is(err, ErrRange) || !math.IsInf(float64(got), 1) {
		t.Errorf("Parse32(1e39) = %v, %v", got, err)
	}
	// Single rounding: this decimal rounds differently via float64.
	// 7.038531e-26 is the classic double-rounding witness for float32.
	s := "7.038531e-26"
	want, _ := strconv.ParseFloat(s, 32)
	if got, err := Parse32(s, nil); err != nil || got != float32(want) {
		t.Errorf("Parse32(%q) = %v, want %v", s, got, float32(want))
	}
}

func TestRoundTripPropertyAllBasesAndModes(t *testing.T) {
	modes := []ReaderRounding{ReaderNearestEven, ReaderUnknown, ReaderNearestAway, ReaderNearestTowardZero}
	bases := []int{2, 7, 10, 16, 36}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		v := math.Float64frombits(r.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		for _, base := range bases {
			for _, mode := range modes {
				o := &Options{Base: base, Reader: mode}
				s, err := Format(v, o)
				if err != nil {
					t.Fatal(err)
				}
				back, err := Parse(s, o)
				if err != nil {
					t.Fatalf("Parse(Format(%g, base %d, %v) = %q): %v", v, base, mode, s, err)
				}
				if math.Float64bits(back) != math.Float64bits(v) {
					t.Fatalf("round trip %g -> %q -> %g (base %d, %v)", v, s, back, base, mode)
				}
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(bits uint64) bool {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		back, err := Parse(Shortest(v), nil)
		return err == nil && math.Float64bits(back) == math.Float64bits(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestQuickFixedReadsBackWithinHalfULP(t *testing.T) {
	// Fixed output (significant portion) is within half a unit of its last
	// significant digit OR within the value's own rounding range; reading
	// it back with marks as zeros must recover v whenever enough digits
	// are significant to pin the value (17 always suffices for float64).
	f := func(bits uint64) bool {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			return true
		}
		s := Fixed(v, 17)
		back, err := Parse(s, nil)
		return err == nil && math.Float64bits(back) == math.Float64bits(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDigitsValue(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		v := math.Float64frombits(r.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		d, err := ShortestDigits(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := d.Value()
		if err != nil || math.Float64bits(back) != math.Float64bits(v) {
			t.Fatalf("Digits.Value() round trip failed for %g: %v %v", v, back, err)
		}
	}
	// Specials.
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)} {
		d, err := ShortestDigits(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := d.Value()
		if err != nil || math.Float64bits(back) != math.Float64bits(v) {
			t.Fatalf("special Value() failed for %v", v)
		}
	}
	dn, _ := ShortestDigits(math.NaN(), nil)
	if back, _ := dn.Value(); !math.IsNaN(back) {
		t.Errorf("NaN Value() = %v", back)
	}
}

func TestNotationForcing(t *testing.T) {
	s, err := Format(1234.5, &Options{Notation: NotationScientific})
	if err != nil || s != "1.2345e3" {
		t.Errorf("forced scientific = %q (%v)", s, err)
	}
	s, err = Format(1e25, &Options{Notation: NotationPositional})
	if err != nil || s != "10000000000000000000000000" {
		t.Errorf("forced positional = %q (%v)", s, err)
	}
	s, err = Format(5e-324, &Options{Notation: NotationScientific})
	if err != nil || s != "5e-324" {
		t.Errorf("denormal scientific = %q (%v)", s, err)
	}
}

func TestReaderModeChangesOutput(t *testing.T) {
	even, err := Format(1e23, &Options{Reader: ReaderNearestEven})
	if err != nil || even != "1e23" {
		t.Fatalf("nearest-even 1e23 = %q (%v)", even, err)
	}
	unknown, err := Format(1e23, &Options{Reader: ReaderUnknown})
	if err != nil {
		t.Fatal(err)
	}
	if unknown == even {
		t.Errorf("unknown-reader output should be longer than %q", even)
	}
	if got, _ := Parse(unknown, nil); got != 1e23 {
		t.Errorf("unknown-reader output %q does not round-trip", unknown)
	}
}

func TestReaderRoundingString(t *testing.T) {
	if ReaderNearestEven.String() != "nearest-even" || ReaderUnknown.String() != "unknown" {
		t.Errorf("ReaderRounding strings wrong")
	}
}
