package floatprint

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"floatprint/internal/bignat"
)

// Regression: ShortestDigits32 used to enter its fast path before
// classifying specials, relying on the fast path's internal guards to
// reject ±0, ±Inf, and NaN.  Specials must be classified first, exactly as
// the float64 path does.
func TestShortestDigits32SpecialsBeforeFastPath(t *testing.T) {
	cases := []struct {
		in    float32
		class Class
		neg   bool
		str   string
	}{
		{float32(math.Copysign(0, -1)), IsZero, true, "-0"},
		{0, IsZero, false, "0"},
		{float32(math.Inf(1)), IsInf, false, "+Inf"},
		{float32(math.Inf(-1)), IsInf, true, "-Inf"},
		{float32(math.NaN()), IsNaN, false, "NaN"},
	}
	for _, c := range cases {
		d, err := ShortestDigits32(c.in, nil)
		if err != nil {
			t.Fatalf("ShortestDigits32(%v): %v", c.in, err)
		}
		if d.Class != c.class || d.Neg != c.neg {
			t.Errorf("ShortestDigits32(%v) = {Class:%v Neg:%v}, want {Class:%v Neg:%v}",
				c.in, d.Class, d.Neg, c.class, c.neg)
		}
		if got := d.String(); got != c.str {
			t.Errorf("ShortestDigits32(%v).String() = %q, want %q", c.in, got, c.str)
		}
		// The specials must also survive non-default (non-fast-path) options.
		d2, err := ShortestDigits32(c.in, &Options{Base: 16})
		if err != nil {
			t.Fatalf("ShortestDigits32(%v, base 16): %v", c.in, err)
		}
		if d2.Class != c.class || d2.Base != 16 {
			t.Errorf("ShortestDigits32(%v, base 16) = {Class:%v Base:%d}, want {Class:%v Base:16}",
				c.in, d2.Class, d2.Base, c.class)
		}
	}
}

// Regression: Digits.render used to call opts.norm itself and, on error,
// silently patch up the half-initialized Options and keep rendering.
// Validation now happens once at the API boundary; rendering is driven by
// the (already validated) Digits value, so a Digits carrying a non-default
// base prints correctly from plain String().
func TestStringOnNonDefaultBaseDigits(t *testing.T) {
	d, err := ShortestDigits(255.5, &Options{Base: 16})
	if err != nil {
		t.Fatal(err)
	}
	if d.Base != 16 {
		t.Fatalf("Base = %d, want 16", d.Base)
	}
	if got := d.String(); got != "ff.8" {
		t.Errorf("String() = %q, want %q", got, "ff.8")
	}
	// Base 36 digits must use the '@' exponent marker ('e' is a digit).
	d36, err := ShortestDigits(1e30, &Options{Base: 36, Notation: NotationScientific})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d36.Append(nil, &Options{Base: 36, Notation: NotationScientific}); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(string(got), "@") {
		t.Errorf("base-36 scientific rendering %q missing '@' exponent marker", got)
	}
}

// Regression companion: invalid options are rejected at the Append API
// boundary and never reach rendering; dst comes back unchanged.
func TestAppendRejectsInvalidOptions(t *testing.T) {
	d, err := ShortestDigits(1.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := []byte("prefix:")
	out, err := d.Append(dst, &Options{Base: 99})
	if err == nil {
		t.Fatal("Append with base 99 did not error")
	}
	if string(out) != "prefix:" {
		t.Errorf("dst mutated on error: %q", out)
	}
}

// Regression: FixedDigits/Fixed used to pass n <= 0 straight through —
// the zero-value path silently produced an empty Digits and nonzero values
// leaked an internal core error.  The count is now validated at the public
// boundary for every value class.
func TestFixedDigitsRejectsNonPositiveCount(t *testing.T) {
	for _, n := range []int{0, -1, -17} {
		for _, v := range []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.NaN()} {
			if _, err := FixedDigits(v, n, nil); err == nil {
				t.Errorf("FixedDigits(%v, %d) did not error", v, n)
			} else if !strings.Contains(err.Error(), "must be positive") {
				t.Errorf("FixedDigits(%v, %d) error %q lacks a clear message", v, n, err)
			}
		}
		if _, err := FixedDigits32(1.5, n, nil); err == nil {
			t.Errorf("FixedDigits32(1.5, %d) did not error", n)
		}
		if _, err := FormatFixed(1.5, n, nil); err == nil {
			t.Errorf("FormatFixed(1.5, %d) did not error", n)
		}
	}
	// The zero-value path with a positive count still pads as before.
	d, err := FixedDigits(0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Class != IsZero || len(d.Digits) != 3 || d.NSig != 3 {
		t.Errorf("FixedDigits(0, 3) = %+v, want 3 zero positions", d)
	}
	if got := d.String(); got != "0.00" {
		t.Errorf("FixedDigits(0, 3).String() = %q, want %q", got, "0.00")
	}
}

// Fixed (string form) documents a panic on invalid counts; pin it so the
// behavior stays deliberate rather than an accident of the error path.
func TestFixedPanicsOnNonPositiveCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fixed(1.5, 0) did not panic")
		}
	}()
	Fixed(1.5, 0)
}

// AppendShortest must agree byte-for-byte with Shortest across finite
// values, specials, and both signs, while sharing dst storage correctly.
func TestAppendShortestMatchesShortest(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, math.Pi, 5e-324,
		math.MaxFloat64, 1e21, 1e22, 123456.789, -2.2250738585072011e-308,
		math.Inf(1), math.Inf(-1), math.NaN(),
		// Two values Grisu3 cannot certify, and 2^-25, an exact-halfway
		// tie the Ryū kernel declines to the exact core.
		3.5844466002796428e298, 8.988465674311579e307, 0x1p-25,
	}
	buf := make([]byte, 0, 64)
	for _, v := range vals {
		buf = AppendShortest(buf[:0], v)
		if got, want := string(buf), Shortest(v); got != want {
			t.Errorf("AppendShortest(%g) = %q, want %q", v, got, want)
		}
	}
	// Appending must preserve existing dst content.
	out := AppendShortest([]byte("x="), 2.5)
	if string(out) != "x=2.5" {
		t.Errorf("AppendShortest with prefix = %q", out)
	}
}

// Digits.Append must agree with String/render for every class and with
// explicit options.
func TestDigitsAppendMatchesString(t *testing.T) {
	vals := []float64{0, -0.25, 1.0 / 3, 6.02214076e23, math.Inf(-1), math.NaN(), 1e-7}
	for _, v := range vals {
		d, err := ShortestDigits(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Append(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != d.String() {
			t.Errorf("Append(%g) = %q, String() = %q", v, got, d.String())
		}
	}
	// Fixed-format digits with marks, positional forcing, and NoMarks.
	d, err := FixedDigits(1234.5, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*Options{nil, {Notation: NotationScientific}, {NoMarks: true}, {Notation: NotationPositional, NoMarks: true}} {
		got, err := d.Append(nil, o)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		if o == nil {
			want = d.String()
		} else {
			oo, _ := o.norm()
			want = d.render(oo)
		}
		if string(got) != want {
			t.Errorf("Append(%+v) = %q, want %q", o, got, want)
		}
	}
}

// AppendFixed is the fixed-format twin of AppendShortest.
func TestAppendFixed(t *testing.T) {
	got := AppendFixed(nil, 1234.5678, 6)
	if string(got) != Fixed(1234.5678, 6) {
		t.Errorf("AppendFixed = %q, want %q", got, Fixed(1234.5678, 6))
	}
}

// Regression: the shared power caches kept every power a conversion asked
// for, so one FixedDigits(1.0/3, 30000) call left 10^0 … 10^30000 cached
// for the life of the process (~176 MB; 30001 entries).  The caches now
// stop at bignat.PowersLimit and compute larger powers per call, with the
// same digits as before.  The reader shares the same tables, so a parse
// of thousands of digits (here 3^3000 as its denominator) is held to the
// same bound.
func TestHugeFixedRequestsLeavePowerCacheBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		base  int
		check func() error
	}{
		{"FixedDigits(1/3, 30000)", 10, func() error {
			return checkThirds(FixedDigits(1.0/3, 30000, nil))
		}},
		{"FixedPositionDigits(1/3, -30000)", 10, func() error {
			return checkThirds(FixedPositionDigits(1.0/3, -30000, nil))
		}},
		{"Parse(0.111…1 base 3, 3000 digits)", 3, func() error {
			// (1 − 3⁻³⁰⁰⁰)/2 lies far closer to 0.5 than half an ulp.
			f, err := Parse("0."+strings.Repeat("1", 3000), &Options{Base: 3})
			if err == nil && f != 0.5 {
				err = fmt.Errorf("read %v, want 0.5", f)
			}
			return err
		}},
	} {
		if err := tc.check(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if n := bignat.Powers(tc.base).Cached(); n > bignat.PowersLimit+1 {
			t.Errorf("%s: base-%d power table holds %d entries, want at most %d", tc.name, tc.base, n, bignat.PowersLimit+1)
		}
	}
}

// checkThirds checks a 30000-position conversion of 1/3: 17 significant
// digits, then zeros.
func checkThirds(d Digits, err error) error {
	if err != nil {
		return err
	}
	if len(d.Digits) != 30000 || d.NSig != 17 || d.K != 0 {
		return fmt.Errorf("%d digits, NSig %d, K %d; want 30000, 17, 0", len(d.Digits), d.NSig, d.K)
	}
	if got := string(digitChars(d.Digits)); got != "33333333333333330"+strings.Repeat("0", 30000-17) {
		return fmt.Errorf("digits %s…, want 33333333333333330 and zeros", got[:20])
	}
	return nil
}

// digitChars renders digit values 0..9 as ASCII.
func digitChars(d []byte) []byte {
	out := make([]byte, len(d))
	for i, v := range d {
		out[i] = '0' + v
	}
	return out
}
