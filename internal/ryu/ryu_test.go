package ryu

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"floatprint/internal/core"
	"floatprint/internal/decimal"
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

// strconvDigits extracts Go's (also Ryū-based) shortest digits and K.
func strconvDigits(v float64) (string, int) {
	s := strconv.FormatFloat(v, 'e', -1, 64)
	mant, expStr, _ := strings.Cut(s, "e")
	exp, _ := strconv.Atoi(expStr)
	d := strings.Replace(mant, ".", "", 1)
	d = strings.TrimRight(d, "0")
	if d == "" {
		d = "0"
	}
	return d, exp + 1
}

// exactDigits is the exact Burger & Dybvig free format of v under a
// nearest-even reader, as a digit string and K.
func exactDigits(t *testing.T, v float64) (string, int) {
	t.Helper()
	exact, err := core.FreeFormat(fpformat.DecodeFloat64(v), 10, core.ScalingEstimate, core.ReaderNearestEven)
	if err != nil {
		t.Fatal(err)
	}
	return digitsString(exact.Digits), exact.K
}

// checkVsStrconv runs the kernel on v and compares it with strconv, the
// other Ryū: the two agree byte for byte except on a final-digit tie,
// where strconv rounds to even and the kernel rounds up as the exact
// core does.  There the kernel must match the exact core instead, and
// v must really be halfway (decimal.Halfway).  A decline fails: the
// kernel decides every positive finite value.  It reports whether v was
// such a tie.
func checkVsStrconv(t *testing.T, v float64) (tie bool) {
	t.Helper()
	digits, k, ok := Shortest(v)
	if !ok {
		t.Fatalf("ryu declined %g [%x]", v, math.Float64bits(v))
	}
	got := digitsString(digits)
	wantD, wantK := strconvDigits(v)
	if got == wantD && k == wantK {
		return false
	}
	exactD, exactK := exactDigits(t, v)
	if !decimal.Halfway(v, digits, k) || got != exactD || k != exactK {
		t.Fatalf("ryu(%g [%x]) = %q K=%d, strconv = %q K=%d, exact core = %q K=%d",
			v, math.Float64bits(v), got, k, wantD, wantK, exactD, exactK)
	}
	return true
}

// TestMatchesStrconvExactly: both are Ryū, so every result must agree
// byte for byte with strconv, except on the final-digit ties where the
// kernel rounds up as the paper's core does; those must stay rare.
func TestMatchesStrconvExactly(t *testing.T) {
	ties, total := 0, 0
	check := func(v float64) {
		t.Helper()
		total++
		if checkVsStrconv(t, v) {
			ties++
		}
	}
	for _, v := range []float64{
		1, 2, 0.5, 0.1, 0.3, 1.0 / 3.0, math.Pi, math.E,
		1e23, 9.109383632e-31, 5e-324, math.MaxFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.Nextafter(1, 2), math.Nextafter(1, 0), math.Nextafter(2, 1),
		123456789012345680000, 1e300, 1e-300,
		2.2250738585072011e-308, 4.35, 123e45, 1.2e-5,
		// The float32-derived tie value from the core tests, and 2⁻²⁵.
		float64(math.Float32frombits(0b1000011001111010101010000000000)),
		0x1p-25,
	} {
		check(v)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300000; i++ {
		v := math.Float64frombits(r.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		check(math.Abs(v))
	}
	for _, v := range schryer.CorpusN(50000) {
		check(v)
	}
	if ties*100 > total {
		t.Errorf("implausibly many digit ties: %d of %d", ties, total)
	}
}

func TestMatchesStrconvDenormals(t *testing.T) {
	for bits := uint64(1); bits < 1<<52; bits = bits*3 + 1 {
		checkVsStrconv(t, math.Float64frombits(bits))
	}
}

func TestMatchesStrconvExponentSweep(t *testing.T) {
	// Every binade, several mantissas: exercises both e2 branches and all
	// table rows.
	r := rand.New(rand.NewSource(2))
	for be := 1; be <= 2046; be++ {
		for trial := 0; trial < 10; trial++ {
			mant := r.Uint64() & (1<<52 - 1)
			checkVsStrconv(t, math.Float64frombits(uint64(be)<<52|mant))
		}
	}
}

// TestMatchesBurgerDybvigNearestEven ties the successor back to the paper:
// every result must be byte-identical to the exact Burger-Dybvig free
// format under the nearest-even reader, ties included (both round them
// up), with no decline.
func TestMatchesBurgerDybvigNearestEven(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		v := math.Abs(math.Float64frombits(r.Uint64()))
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		digits, k, ok := Shortest(v)
		if !ok {
			t.Fatalf("ryu declined %g [%x]", v, math.Float64bits(v))
		}
		if wantD, wantK := exactDigits(t, v); digitsString(digits) != wantD || k != wantK {
			t.Fatalf("ryu(%g [%x]) = %q K=%d, exact = %q K=%d",
				v, math.Float64bits(v), digitsString(digits), k, wantD, wantK)
		}
	}
}

// TestTieValuesRoundUp pins the tie rule on the corpus's final-digit
// ties, the values where strconv's round-to-even and the paper's
// round-up disagree: the kernel must serve each with the exact core's
// digits (checkVsStrconv), and the corpus must hold some.
func TestTieValuesRoundUp(t *testing.T) {
	ties := 0
	for _, v := range schryer.CorpusN(schryer.CorpusSize) {
		if checkVsStrconv(t, v) {
			ties++
		}
	}
	t.Logf("corpus digit ties: %d of %d", ties, schryer.CorpusSize)
	if ties == 0 {
		t.Error("no digit tie in the corpus: the tie rule went untested")
	}
}

func TestSpecialsDecline(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), -1, -0.5,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		if d, k, ok := Shortest(v); ok || d != nil || k != 0 {
			t.Errorf("Shortest(%v) = (%v, %d, %v), want decline", v, d, k, ok)
		}
		var buf [BufLen]byte
		if n, k, ok := ShortestInto(buf[:], v); ok || n != 0 || k != 0 {
			t.Errorf("ShortestInto(%v) = (%d, %d, %v), want decline", v, n, k, ok)
		}
		if n, k, ok := Shortest32Into(buf[:], float32(v), core.ReaderUnknown); ok || n != 0 || k != 0 {
			t.Errorf("Shortest32Into(%v) = (%d, %d, %v), want decline", v, n, k, ok)
		}
	}
}

func TestShortestIntoShortBuffer(t *testing.T) {
	var buf [BufLen - 1]byte
	if n, k, ok := ShortestInto(buf[:], 1.5); ok || n != 0 || k != 0 {
		t.Errorf("ShortestInto(short buf) = (%d, %d, %v), want decline", n, k, ok)
	}
	if n, k, ok := ShortestModeInto(buf[:], 1.5, core.ReaderNearestAway); ok || n != 0 || k != 0 {
		t.Errorf("ShortestModeInto(short buf) = (%d, %d, %v), want decline", n, k, ok)
	}
	if n, k, ok := Shortest32Into(buf[:], 1.5, core.ReaderNearestAway); ok || n != 0 || k != 0 {
		t.Errorf("Shortest32Into(short buf) = (%d, %d, %v), want decline", n, k, ok)
	}
}

// TestShortestIntoMatchesShortest: the allocating wrapper and the in-place
// entry point must agree on every path — Shortest returns digit values,
// ShortestInto the same digits as ASCII.
func TestShortestIntoMatchesShortest(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var buf [BufLen]byte
	for i := 0; i < 50000; i++ {
		v := math.Abs(math.Float64frombits(r.Uint64()))
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		digits, k1, ok1 := Shortest(v)
		n, k2, ok2 := ShortestInto(buf[:], v)
		if ok1 != ok2 || k1 != k2 || len(digits) != n {
			t.Fatalf("Shortest(%g) = (%v, %d, %v) vs ShortestInto (%d, %d, %v)",
				v, digits, k1, ok1, n, k2, ok2)
		}
		for j := 0; j < n; j++ {
			if digits[j] != buf[j]-'0' {
				t.Fatalf("digit %d mismatch for %g: %v vs %q", j, v, digits, buf[:n])
			}
		}
	}
}

func TestNoTrailingZeros(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 50000; i++ {
		v := math.Abs(math.Float64frombits(r.Uint64()))
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		digits, _, ok := Shortest(v)
		if ok && len(digits) > 0 && digits[len(digits)-1] == 0 {
			t.Fatalf("trailing zero digit for %g: %v", v, digits)
		}
	}
}

func TestHelperFunctions(t *testing.T) {
	// pow5bits against the definition.
	for e := 0; e <= 3000; e++ {
		want := int(math.Floor(float64(e)*math.Log2(5))) + 1
		if e == 0 {
			want = 1
		}
		if got := pow5bits(e); got != want {
			t.Fatalf("pow5bits(%d) = %d, want %d", e, got, want)
		}
	}
	for e := 0; e <= 1650; e++ {
		if got, want := log10Pow2(e), int(math.Floor(float64(e)*math.Log10(2))); got != want {
			t.Fatalf("log10Pow2(%d) = %d, want %d", e, got, want)
		}
	}
	for e := 0; e <= 2620; e++ {
		if got, want := log10Pow5(e), int(math.Floor(float64(e)*math.Log10(5))); got != want {
			t.Fatalf("log10Pow5(%d) = %d, want %d", e, got, want)
		}
	}
	if !multipleOfPowerOf5(125, 3) || multipleOfPowerOf5(124, 1) || !multipleOfPowerOf5(7, 0) {
		t.Errorf("multipleOfPowerOf5 wrong")
	}
	if !multipleOfPowerOf2(8, 3) || multipleOfPowerOf2(8, 4) {
		t.Errorf("multipleOfPowerOf2 wrong")
	}
}

func BenchmarkRyuShortest(b *testing.B) {
	corpus := schryer.CorpusN(4096)
	var buf [BufLen]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShortestInto(buf[:], corpus[i%len(corpus)])
	}
}
