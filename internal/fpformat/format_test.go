package fpformat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"floatprint/internal/bignat"
)

func TestDecodeFloat64Known(t *testing.T) {
	cases := []struct {
		v     float64
		class Class
		f     uint64
		e     int
	}{
		{1.0, Normal, 1 << 52, -52},
		{2.0, Normal, 1 << 52, -51},
		{0.5, Normal, 1 << 52, -53},
		{1.5, Normal, 3 << 51, -52},
		{math.MaxFloat64, Normal, 1<<53 - 1, 971},
		{math.SmallestNonzeroFloat64, Denormal, 1, -1074},
		{0x1p-1022, Normal, 1 << 52, -1074},
	}
	for _, c := range cases {
		v := DecodeFloat64(c.v)
		fu, _ := v.F.Uint64()
		if v.Class != c.class || fu != c.f || v.E != c.e {
			t.Errorf("DecodeFloat64(%g) = {%v, f=%d, e=%d}, want {%v, f=%d, e=%d}",
				c.v, v.Class, fu, v.E, c.class, c.f, c.e)
		}
		if v.Neg {
			t.Errorf("DecodeFloat64(%g).Neg = true", c.v)
		}
	}
}

func TestDecodeSpecials(t *testing.T) {
	if v := DecodeFloat64(math.Inf(1)); v.Class != Inf || v.Neg {
		t.Errorf("+Inf decoded as %v neg=%v", v.Class, v.Neg)
	}
	if v := DecodeFloat64(math.Inf(-1)); v.Class != Inf || !v.Neg {
		t.Errorf("-Inf decoded as %v neg=%v", v.Class, v.Neg)
	}
	if v := DecodeFloat64(math.NaN()); v.Class != NaN {
		t.Errorf("NaN decoded as %v", v.Class)
	}
	if v := DecodeFloat64(0); v.Class != Zero || v.Neg {
		t.Errorf("+0 decoded as %v neg=%v", v.Class, v.Neg)
	}
	if v := DecodeFloat64(math.Copysign(0, -1)); v.Class != Zero || !v.Neg {
		t.Errorf("-0 decoded as %v neg=%v", v.Class, v.Neg)
	}
	if !DecodeFloat64(1.0).IsFinite() || DecodeFloat64(math.Inf(1)).IsFinite() {
		t.Errorf("IsFinite wrong")
	}
}

func TestDecodeValueIdentity(t *testing.T) {
	// f × 2^e must equal the original float, checked in exact arithmetic by
	// scaling both sides to integers.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		x := math.Float64frombits(r.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		v := DecodeFloat64(x)
		back, err := v.Float64()
		if err != nil {
			t.Fatalf("Float64 round-trip error for %x: %v", math.Float64bits(x), err)
		}
		if math.Float64bits(back) != math.Float64bits(x) {
			t.Fatalf("decode/encode mismatch: %x -> %x", math.Float64bits(x), math.Float64bits(back))
		}
	}
}

func TestDecodeFloat32RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		x := math.Float32frombits(r.Uint32())
		if x != x || math.IsInf(float64(x), 0) {
			continue
		}
		v := DecodeFloat32(x)
		back, err := v.Float32()
		if err != nil {
			t.Fatalf("Float32 round-trip error: %v", err)
		}
		if math.Float32bits(back) != math.Float32bits(x) {
			t.Fatalf("decode/encode mismatch: %x -> %x", math.Float32bits(x), math.Float32bits(back))
		}
	}
}

func TestEncodeBitsErrors(t *testing.T) {
	if _, err := EncodeBits(Value{Fmt: Binary128}); err == nil {
		t.Errorf("EncodeBits on binary128 should fail")
	}
	if _, err := EncodeBits(Value{Fmt: X87Extended}); err == nil {
		t.Errorf("EncodeBits on x87ext should fail")
	}
	v := DecodeFloat32(1.5)
	if _, err := v.Float64(); err == nil {
		t.Errorf("Float64 on a binary32 value should fail")
	}
	if _, err := DecodeFloat64(1.5).Float32(); err == nil {
		t.Errorf("Float32 on a binary64 value should fail")
	}
}

func TestEncodeSpecials(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want uint64
	}{
		{Value{Fmt: Binary64, Class: Zero}, 0},
		{Value{Fmt: Binary64, Class: Zero, Neg: true}, 1 << 63},
		{Value{Fmt: Binary64, Class: Inf}, math.Float64bits(math.Inf(1))},
		{Value{Fmt: Binary64, Class: Inf, Neg: true}, math.Float64bits(math.Inf(-1))},
	} {
		got, err := EncodeBits(c.v)
		if err != nil || got != c.want {
			t.Errorf("EncodeBits(%v %v) = %x, %v; want %x", c.v.Class, c.v.Neg, got, err, c.want)
		}
	}
	nan, err := EncodeBits(Value{Fmt: Binary64, Class: NaN})
	if err != nil || !math.IsNaN(math.Float64frombits(nan)) {
		t.Errorf("EncodeBits(NaN) = %x, %v", nan, err)
	}
}

func TestNextPrevAgainstNextafter(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	samples := []float64{
		1.0, 2.0, 0.1, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64,
		0x1.fffffffffffffp0, // just below 2: Next crosses a binade boundary
	}
	for i := 0; i < 3000; i++ {
		samples = append(samples, math.Abs(math.Float64frombits(r.Uint64())))
	}
	for _, x := range samples {
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			continue
		}
		v := DecodeFloat64(x)

		next := Next(v)
		wantNext := math.Nextafter(x, math.Inf(1))
		if math.IsInf(wantNext, 1) {
			if next.Class != Inf {
				t.Fatalf("Next(%g) should be Inf", x)
			}
		} else {
			got, err := next.Float64()
			if err != nil || got != wantNext {
				t.Fatalf("Next(%g) = %g (%v), want %g", x, got, err, wantNext)
			}
		}

		prev := Prev(v)
		wantPrev := math.Nextafter(x, 0)
		got, err := prev.Float64()
		if err != nil || got != wantPrev {
			t.Fatalf("Prev(%g) = %g (%v), want %g", x, got, err, wantPrev)
		}
	}
}

func TestNextPrevInverse(t *testing.T) {
	f := func(bits uint64) bool {
		x := math.Abs(math.Float64frombits(bits))
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || x == math.MaxFloat64 {
			return true
		}
		v := DecodeFloat64(x)
		back, err := Prev(Next(v)).Float64()
		return err == nil && back == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNextOfZeroAndSpecials(t *testing.T) {
	z := Value{Fmt: Binary64, Class: Zero}
	n := Next(z)
	got, err := n.Float64()
	if err != nil || got != math.SmallestNonzeroFloat64 {
		t.Errorf("Next(0) = %g, want %g", got, math.SmallestNonzeroFloat64)
	}
	if Next(Value{Fmt: Binary64, Class: Inf}).Class != Inf {
		t.Errorf("Next(Inf) should stay Inf")
	}
	if Prev(Value{Fmt: Binary64, Class: Zero}).Class != Zero {
		t.Errorf("Prev(0) should stay Zero")
	}
	// Prev of the smallest denormal is zero.
	tiny := DecodeFloat64(math.SmallestNonzeroFloat64)
	if Prev(tiny).Class != Zero {
		t.Errorf("Prev(smallest denormal) should be Zero")
	}
	// Next at MaxExp overflows to Inf.
	if Next(DecodeFloat64(math.MaxFloat64)).Class != Inf {
		t.Errorf("Next(MaxFloat64) should be Inf")
	}
}

func TestIsBoundary(t *testing.T) {
	if !DecodeFloat64(1.0).IsBoundary() {
		t.Errorf("1.0 (f = 2^52) should be a boundary")
	}
	if DecodeFloat64(1.5).IsBoundary() {
		t.Errorf("1.5 should not be a boundary")
	}
	if DecodeFloat64(math.SmallestNonzeroFloat64).IsBoundary() {
		t.Errorf("denormals are never boundaries")
	}
}

// TestBoundsReadSharedPowers: IsBoundary compares against the shared
// b^(p−1) without allocating, and Next at a binade wrap hands out its
// own copy of that power, so mutating the result leaves the table intact.
func TestBoundsReadSharedPowers(t *testing.T) {
	one := DecodeFloat64(1.0)
	if n := testing.AllocsPerRun(100, func() { one.IsBoundary() }); n != 0 {
		t.Errorf("IsBoundary allocates %v times per call, want 0", n)
	}
	v := Next(DecodeFloat64(math.Nextafter(2, 0)))
	if f, _ := v.Float64(); f != 2 {
		t.Fatalf("Next(2⁻) = %v, want 2", f)
	}
	bignat.MulWordInPlace(v.F, 3)
	if got := bignat.Powers(2).Pow(52); bignat.Cmp(got, bignat.Shl(bignat.Nat{1}, 52)) != 0 {
		t.Fatalf("mutating Next's mantissa changed the shared 2^52 to %v", got)
	}
}

func TestMantissaEven(t *testing.T) {
	if !DecodeFloat64(1.0).MantissaEven() {
		t.Errorf("f(1.0) = 2^52 is even")
	}
	if DecodeFloat64(math.Nextafter(1.0, 2)).MantissaEven() {
		t.Errorf("f(nextafter(1)) = 2^52+1 is odd")
	}
	// Even non-binary base uses the low-limb fast path.
	dec, err := New("dec7", 10, 7, -30, 30)
	if err != nil {
		t.Fatal(err)
	}
	v, err := dec.FromParts(false, bignat.FromUint64(1234567), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.MantissaEven() {
		t.Errorf("1234567 should be odd")
	}
	// An odd base exercises the explicit mod-2 path.
	b3, err := New("tern", 3, 5, -10, 10)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := b3.FromParts(false, bignat.FromUint64(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.MantissaEven() {
		t.Errorf("100 should be even in any base")
	}
}

func TestNewValidation(t *testing.T) {
	for _, c := range []struct{ base, prec, lo, hi int }{
		{1, 5, -5, 5}, {37, 5, -5, 5}, {10, 0, -5, 5}, {10, 5, 5, -5},
	} {
		if _, err := New("bad", c.base, c.prec, c.lo, c.hi); err == nil {
			t.Errorf("New(%+v) should fail", c)
		}
	}
	if _, err := New("ok", 10, 7, -40, 40); err != nil {
		t.Errorf("New valid format failed: %v", err)
	}
}

func TestFromParts(t *testing.T) {
	f := Binary64
	// Normalization: 1 × 2^0 becomes 2^52 × 2^-52.
	v, err := f.FromParts(false, bignat.FromUint64(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	fu, _ := v.F.Uint64()
	if fu != 1<<52 || v.E != -52 || v.Class != Normal {
		t.Errorf("FromParts(1, 0) = f=%d e=%d %v", fu, v.E, v.Class)
	}
	x, err := v.Float64()
	if err != nil || x != 1.0 {
		t.Errorf("FromParts(1,0).Float64() = %g, %v", x, err)
	}
	// Zero regardless of exponent.
	z, err := f.FromParts(true, nil, 100)
	if err != nil || z.Class != Zero || !z.Neg {
		t.Errorf("FromParts(0) wrong: %v %v", z, err)
	}
	// Denormal: cannot normalize below MinExp.
	d, err := f.FromParts(false, bignat.FromUint64(3), f.MinExp)
	if err != nil || d.Class != Denormal {
		t.Errorf("FromParts(3, MinExp) = %v, %v", d.Class, err)
	}
	// Mantissa too wide.
	if _, err := f.FromParts(false, bignat.PowUint(2, 53), 0); err == nil {
		t.Errorf("oversized mantissa accepted")
	}
	// Exponent too large.
	if _, err := f.FromParts(false, bignat.PowUint(2, 52), f.MaxExp+1); err == nil {
		t.Errorf("oversized exponent accepted")
	}
	// Exponent too small even after normalization.
	if _, err := f.FromParts(false, bignat.PowUint(2, 52), f.MinExp-1); err == nil {
		t.Errorf("undersized exponent accepted")
	}
}

func TestFromPartsRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		x := math.Abs(math.Float64frombits(r.Uint64()))
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			continue
		}
		v := DecodeFloat64(x)
		re, err := Binary64.FromParts(v.Neg, v.F, v.E)
		if err != nil {
			t.Fatalf("FromParts(decode(%g)): %v", x, err)
		}
		back, err := re.Float64()
		if err != nil || back != x {
			t.Fatalf("FromParts round-trip: %g -> %g (%v)", x, back, err)
		}
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{Zero: "zero", Denormal: "denormal", Normal: "normal", Inf: "inf", NaN: "nan"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Errorf("unknown class string = %q", Class(99).String())
	}
}

func TestDecodeBitsUnsupported(t *testing.T) {
	if _, err := Binary128.DecodeBits(0); err == nil {
		t.Errorf("DecodeBits on binary128 should fail")
	}
	if _, err := X87Extended.DecodeBits(0); err == nil {
		t.Errorf("DecodeBits on x87ext (no hidden bit) should fail")
	}
	v, err := Binary16.DecodeBits(0x3C00) // 1.0 in binary16
	if err != nil || v.Class != Normal {
		t.Fatalf("DecodeBits(binary16 1.0): %v %v", v.Class, err)
	}
	fu, _ := v.F.Uint64()
	if fu != 1<<10 || v.E != -10 {
		t.Errorf("binary16 1.0 = f=%d e=%d", fu, v.E)
	}
}

func TestBFloat16Exhaustive(t *testing.T) {
	// Every positive finite bfloat16 decodes, re-encodes, and equals the
	// truncated float32 it represents.
	for bits := uint64(1); bits < 0x7f80; bits++ {
		v, err := BFloat16.DecodeBits(bits)
		if err != nil {
			t.Fatal(err)
		}
		back, err := EncodeBits(v)
		if err != nil || back != bits {
			t.Fatalf("bfloat16 %04x re-encodes to %04x (%v)", bits, back, err)
		}
		// Value identity: a bfloat16 is the float32 with the same top bits
		// (classification may differ — small bfloat16 normals are float32
		// denormals-range values and vice versa is impossible here — so
		// compare the exact values f·2^e).
		f32 := math.Float32frombits(uint32(bits) << 16)
		want := DecodeFloat32(f32)
		lhs, rhs := v.F, want.F
		if d := v.E - want.E; d >= 0 {
			lhs = bignat.Shl(lhs, uint(d))
		} else {
			rhs = bignat.Shl(rhs, uint(-d))
		}
		if bignat.Cmp(lhs, rhs) != 0 {
			t.Fatalf("bfloat16 %04x: value %v·2^%d != float32 %v·2^%d",
				bits, v.F, v.E, want.F, want.E)
		}
	}
}

func TestBFloat16SpecialsAndBounds(t *testing.T) {
	if v, _ := BFloat16.DecodeBits(0x7f80); v.Class != Inf {
		t.Errorf("bfloat16 inf pattern decoded as %v", v.Class)
	}
	if v, _ := BFloat16.DecodeBits(0x7fc0); v.Class != NaN {
		t.Errorf("bfloat16 nan pattern decoded as %v", v.Class)
	}
	// Max finite bfloat16 = 0x7f7f = 3.3895314e38.
	v, _ := BFloat16.DecodeBits(0x7f7f)
	f, err := valueApprox(v)
	if err != nil || math.Abs(f-3.3895314e38) > 1e31 {
		t.Errorf("bfloat16 max = %g (%v)", f, err)
	}
}

// valueApprox converts any small-format Value to float64 for sanity checks.
func valueApprox(v Value) (float64, error) {
	u, ok := v.F.Uint64()
	if !ok {
		return 0, nil
	}
	return float64(u) * math.Pow(2, float64(v.E)), nil
}
