package ryu

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

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

// TestMatchesStrconvExactly: both are Ryū, so every served (ok) result must
// agree bit-for-bit with strconv.  Declines are the exact-halfway tie cases
// ceded to the Burger & Dybvig core; they must stay rare.
func TestMatchesStrconvExactly(t *testing.T) {
	declines, total := 0, 0
	check := func(v float64) {
		t.Helper()
		total++
		digits, k, ok := Shortest(v)
		if !ok {
			declines++
			return
		}
		wantD, wantK := strconvDigits(v)
		if digitsString(digits) != wantD || k != wantK {
			t.Fatalf("ryu(%g [%x]) = %q K=%d, strconv = %q K=%d",
				v, math.Float64bits(v), digitsString(digits), k, wantD, wantK)
		}
	}
	for _, v := range []float64{
		1, 2, 0.5, 0.1, 0.3, 1.0 / 3.0, math.Pi, math.E,
		1e23, 9.109383632e-31, 5e-324, math.MaxFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.Nextafter(1, 2), math.Nextafter(1, 0), math.Nextafter(2, 1),
		123456789012345680000, 1e300, 1e-300,
		2.2250738585072011e-308, 4.35, 123e45, 1.2e-5,
		// The float32-derived tie value from the core tests.
		float64(math.Float32frombits(0b1000011001111010101010000000000)),
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
	if declines*100 > total {
		t.Errorf("implausibly many tie declines: %d of %d", declines, total)
	}
}

func TestMatchesStrconvDenormals(t *testing.T) {
	for bits := uint64(1); bits < 1<<52; bits = bits*3 + 1 {
		v := math.Float64frombits(bits)
		digits, k, ok := Shortest(v)
		if !ok {
			continue // exact-halfway tie ceded to the exact core
		}
		wantD, wantK := strconvDigits(v)
		if digitsString(digits) != wantD || k != wantK {
			t.Fatalf("denormal %x: ryu %q K=%d, strconv %q K=%d",
				bits, digitsString(digits), k, wantD, wantK)
		}
	}
}

func TestMatchesStrconvExponentSweep(t *testing.T) {
	// Every binade, several mantissas: exercises both e2 branches and all
	// table rows.
	r := rand.New(rand.NewSource(2))
	for be := 1; be <= 2046; be++ {
		for trial := 0; trial < 10; trial++ {
			mant := r.Uint64() & (1<<52 - 1)
			v := math.Float64frombits(uint64(be)<<52 | mant)
			digits, k, ok := Shortest(v)
			if !ok {
				continue
			}
			wantD, wantK := strconvDigits(v)
			if digitsString(digits) != wantD || k != wantK {
				t.Fatalf("be=%d mant=%x: ryu %q K=%d, strconv %q K=%d",
					be, mant, digitsString(digits), k, wantD, wantK)
			}
		}
	}
}

// TestMatchesBurgerDybvigNearestEven ties the successor back to the paper:
// every result Ryū serves (ok == true) must be byte-identical to the exact
// Burger-Dybvig free format under the nearest-even reader.  The exact
// halfway ties where the two tie policies diverge (paper: up; Ryū: to even)
// are exactly the inputs Ryū declines, so no tolerance remains.
func TestMatchesBurgerDybvigNearestEven(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	declines := 0
	for i := 0; i < 20000; i++ {
		v := math.Abs(math.Float64frombits(r.Uint64()))
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		digits, k, ok := Shortest(v)
		if !ok {
			declines++
			continue
		}
		exact, err := core.FreeFormat(fpformat.DecodeFloat64(v), 10, core.ScalingEstimate, core.ReaderNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		if digitsString(digits) != digitsString(exact.Digits) || k != exact.K {
			t.Fatalf("ryu(%g [%x]) = %q K=%d, exact = %q K=%d",
				v, math.Float64bits(v),
				digitsString(digits), k, digitsString(exact.Digits), exact.K)
		}
	}
	if declines > 40 {
		t.Errorf("implausibly many tie declines: %d", declines)
	}
}

// TestTieValuesDecline pins the decline contract on values whose shortest
// form is an exact halfway case with an even candidate: Ryū must cede these
// to the exact core rather than emit its round-to-even answer.
func TestTieValuesDecline(t *testing.T) {
	found := 0
	for _, v := range schryer.CorpusN(schryer.CorpusSize) {
		_, _, ok := Shortest(v)
		if ok {
			continue
		}
		found++
		// The declined value must be a genuine divergence: strconv's
		// round-to-even output differs from the exact core's round-up.
		wantD, wantK := strconvDigits(v)
		exact, err := core.FreeFormat(fpformat.DecodeFloat64(v), 10, core.ScalingEstimate, core.ReaderNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		if digitsString(exact.Digits) == wantD && exact.K == wantK {
			t.Errorf("ryu declined %g [%x] but strconv and the exact core agree (%q K=%d): spurious decline",
				v, math.Float64bits(v), wantD, wantK)
		}
		if found > 100 {
			t.Fatalf("decline rate over the corpus is implausibly high")
		}
	}
	t.Logf("corpus declines: %d of %d", found, schryer.CorpusSize)
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
