package decimal

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"floatprint/internal/baseline"
	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/schryer"
)

func digitsString(digits []byte) string {
	var sb strings.Builder
	for _, d := range digits {
		sb.WriteByte('0' + d)
	}
	return sb.String()
}

func TestFromUint64(t *testing.T) {
	cases := []struct {
		m    uint64
		want string
	}{
		{0, "0"},
		{1, "0.1e1"},
		{10, "0.1e2"}, // trailing zero trimmed, exponent carries the scale
		{12345, "0.12345e5"},
		{math.MaxUint64, "0.18446744073709551615e20"},
	}
	for _, c := range cases {
		if got := FromUint64(c.m).String(); got != c.want {
			t.Errorf("FromUint64(%d) = %s, want %s", c.m, got, c.want)
		}
	}
}

// TestShiftAgainstBigRat: shifting by 2^k must agree with exact rational
// arithmetic for both signs of k.
func TestShiftAgainstBigRat(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		m := uint64(r.Int63())
		k := r.Intn(240) - 120
		d := FromUint64(m)
		d.Shift(k)

		want := new(big.Rat).SetInt64(int64(m))
		two := big.NewRat(2, 1)
		for j := 0; j < k; j++ {
			want.Mul(want, two)
		}
		for j := 0; j < -k; j++ {
			want.Quo(want, two)
		}
		// Rebuild the decimal's value as a rational.
		got := new(big.Rat)
		ten := big.NewRat(10, 1)
		for _, dig := range d.D {
			got.Mul(got, ten)
			got.Add(got, new(big.Rat).SetInt64(int64(dig)))
		}
		// got = digits as integer; value = got × 10^(DP-len).
		scale := d.DP - len(d.D)
		for j := 0; j < scale; j++ {
			got.Mul(got, ten)
		}
		for j := 0; j < -scale; j++ {
			got.Quo(got, ten)
		}
		if !d.Truncated && got.Cmp(want) != 0 {
			t.Fatalf("Shift(%d) of %d: got %s, want %s", k, m, got, want)
		}
	}
}

func TestShiftZero(t *testing.T) {
	d := FromUint64(0)
	d.Shift(100)
	d.Shift(-100)
	if !d.IsZero() || d.String() != "0" {
		t.Errorf("zero shift wrong: %s", d.String())
	}
}

func TestTruncationFlag(t *testing.T) {
	// 2^-1074 has a 767-significant-digit expansion that fits; shifting a
	// large odd mantissa far down eventually exceeds the cap.
	d := FromUint64(1)
	d.Shift(-1074)
	if d.Truncated {
		t.Errorf("2^-1074 should fit exactly in %d digits (needs 767)", maxDigits)
	}
	big := FromUint64(1<<53 - 1)
	big.Shift(-1074)
	if !big.Truncated && len(big.D) > maxDigits {
		t.Errorf("cap not enforced")
	}
}

func TestRoundTieRules(t *testing.T) {
	mk := func() *Dec { return FromUint64(125) } // 0.125e3
	d := mk()
	d.Round(2, TieUp)
	if d.String() != "0.13e3" {
		t.Errorf("TieUp: %s", d.String())
	}
	d = mk()
	d.Round(2, TieEven)
	if d.String() != "0.12e3" {
		t.Errorf("TieEven: %s", d.String())
	}
	// Not a tie: digit 6 rounds up under both rules.
	d = FromUint64(126)
	d.Round(2, TieEven)
	if d.String() != "0.13e3" {
		t.Errorf("round 126: %s", d.String())
	}
	// 999 rolls over.
	d = FromUint64(999)
	d.Round(2, TieUp)
	if d.String() != "0.1e4" {
		t.Errorf("rollover: %s", d.String())
	}
	// Truncated halves always round up.
	d = FromUint64(1255)
	d.D = d.D[:3]
	d.Truncated = true
	d.Round(2, TieEven)
	if d.String() != "0.13e4" {
		t.Errorf("truncated tie: %s", d.String())
	}
}

// TestHalfway pins the tie detector on hand-checked values: a tie
// matches either adjacent candidate and nothing else, and a value whose
// expansion does not end in 5 is never a tie.
func TestHalfway(t *testing.T) {
	for _, c := range []struct {
		v      float64
		digits []byte
		k      int
		want   bool
	}{
		{1.5, []byte{1}, 1, true},
		{1.5, []byte{2}, 1, true},
		{1.5, []byte{2, 0}, 1, true}, // trailing zeros are ignored
		{1.5, []byte{1, 5}, 1, false},
		{1.5, []byte{3}, 1, false},
		{9.5, []byte{1}, 2, true}, // the carry into a new leading digit
		{0.3, []byte{3}, 0, false},
		// 2⁻²⁵ = 2.98023223876953125e-8: strconv keeps ...12, the
		// paper's core takes ...13.
		{0x1p-25, []byte{2, 9, 8, 0, 2, 3, 2, 2, 3, 8, 7, 6, 9, 5, 3, 1, 2}, -7, true},
		{0x1p-25, []byte{2, 9, 8, 0, 2, 3, 2, 2, 3, 8, 7, 6, 9, 5, 3, 1, 3}, -7, true},
		{0x1p-25, []byte{2, 9, 8, 0, 2, 3, 2, 2, 3, 8, 7, 6, 9, 5, 3, 1, 4}, -7, false},
	} {
		if got := Halfway(c.v, c.digits, c.k); got != c.want {
			t.Errorf("Halfway(%g, %v, %d) = %v, want %v", c.v, c.digits, c.k, got, c.want)
		}
	}
}

// TestShortestMatchesCoreExactly: the decimal-walk shortest conversion and
// the paper's integer-scaling one share the tie rule, so they must agree
// digit-for-digit with NO tolerance.
func TestShortestMatchesCoreExactly(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		digits, k := ShortestFloat64(v)
		exact, err := core.FreeFormat(fpformat.DecodeFloat64(v), 10, core.ScalingEstimate, core.ReaderNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		if digitsString(digits) != digitsString(exact.Digits) || k != exact.K {
			t.Fatalf("decimal(%g [%x]) = %q K=%d, core = %q K=%d",
				v, math.Float64bits(v), digitsString(digits), k,
				digitsString(exact.Digits), exact.K)
		}
	}
	for _, v := range []float64{
		1, 0.3, 0.1, math.Pi, 1e23, 5e-324, math.MaxFloat64, 0x1p-1022,
		math.Nextafter(1, 2), math.Nextafter(1, 0), 2.2250738585072011e-308,
	} {
		check(v)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 4000; i++ {
		v := math.Abs(math.Float64frombits(r.Uint64()))
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		check(v)
	}
	for _, v := range schryer.CorpusN(4000) {
		check(v)
	}
}

func TestShortestRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		v := math.Abs(math.Float64frombits(r.Uint64()))
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		digits, k := ShortestFloat64(v)
		s := "0." + digitsString(digits) + "e" + strconv.Itoa(k)
		back, err := strconv.ParseFloat(s, 64)
		if err != nil || back != v {
			t.Fatalf("decimal shortest %q of %g reads back %v (%v)", s, v, back, err)
		}
	}
}

func TestShortestSpecials(t *testing.T) {
	for _, v := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if d, _ := ShortestFloat64(v); d != nil {
			t.Errorf("ShortestFloat64(%v) = %v, want nil", v, d)
		}
	}
}

// TestFixedMatchesBaseline: with TieEven the decimal fixed conversion
// equals the big-integer straightforward baseline exactly.
func TestFixedMatchesBaseline(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		v := math.Abs(math.Float64frombits(r.Uint64()))
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		n := 1 + r.Intn(20)
		digits, k := FixedFloat64(v, n, TieEven)
		want, err := baseline.FixedDigits(fpformat.DecodeFloat64(v), 10, n)
		if err != nil {
			t.Fatal(err)
		}
		if digitsString(digits) != digitsString(want.Digits) || k != want.K {
			t.Fatalf("FixedFloat64(%g, %d) = %q K=%d, baseline %q K=%d",
				v, n, digitsString(digits), k, digitsString(want.Digits), want.K)
		}
	}
}

func TestFixedSpecials(t *testing.T) {
	if d, _ := FixedFloat64(-1, 5, TieEven); d != nil {
		t.Errorf("negative accepted")
	}
	if d, _ := FixedFloat64(1, 0, TieEven); d != nil {
		t.Errorf("zero digits accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := FromUint64(12345)
	c := d.Clone()
	c.Round(2, TieUp)
	if d.String() != "0.12345e5" {
		t.Errorf("Clone shares storage: %s", d.String())
	}
}

func BenchmarkDecimalShortest(b *testing.B) {
	corpus := schryer.CorpusN(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShortestFloat64(corpus[i%len(corpus)])
	}
}

// TestUpperCarryChainRegression pins the case the fuzzer caught (the same
// shape as golang.org/issue/29491): the round-up candidate lands exactly
// on the EXCLUSIVE upper midpoint via a 9→0 carry chain, so the shorter
// form must be rejected.
func TestUpperCarryChainRegression(t *testing.T) {
	for _, bits := range []uint64{
		0x4350000000000001, // 18014398509481988: upper midpoint ...990
		0x4360000000000001,
		0x435587d2a7851bef,
	} {
		v := math.Float64frombits(bits)
		digits, k := ShortestFloat64(v)
		s := "0." + digitsString(digits) + "e" + strconv.Itoa(k)
		back, err := strconv.ParseFloat(s, 64)
		if err != nil || math.Float64bits(back) != bits {
			t.Errorf("regression %x: %q reads back %x", bits, s, math.Float64bits(back))
		}
		want := strconv.FormatFloat(v, 'e', -1, 64)
		wantDigits := strings.TrimRight(strings.Replace(strings.Split(want, "e")[0], ".", "", 1), "0")
		if digitsString(digits) != wantDigits {
			t.Errorf("regression %x: digits %q, strconv %q", bits, digitsString(digits), wantDigits)
		}
	}
}
