package bignat

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// toBig converts a Nat to a math/big.Int for oracle comparisons.
func toBig(n Nat) *big.Int {
	z := new(big.Int)
	for i := len(n) - 1; i >= 0; i-- {
		z.Lsh(z, wordBits)
		z.Or(z, new(big.Int).SetUint64(uint64(n[i])))
	}
	return z
}

// fromBig converts a non-negative math/big.Int to a Nat.
func fromBig(z *big.Int) Nat {
	if z.Sign() < 0 {
		panic("fromBig: negative")
	}
	var n Nat
	t := new(big.Int).Set(z)
	mask := new(big.Int).SetUint64(uint64(^Word(0)))
	for t.Sign() > 0 {
		limb := new(big.Int).And(t, mask)
		n = append(n, Word(limb.Uint64()))
		t.Rsh(t, wordBits)
	}
	return n
}

// randNat returns a random Nat with the given number of limbs (the top limb
// is forced nonzero unless limbs == 0).
func randNat(r *rand.Rand, limbs int) Nat {
	if limbs == 0 {
		return nil
	}
	n := make(Nat, limbs)
	for i := range n {
		n[i] = Word(r.Uint64())
	}
	for n[limbs-1] == 0 {
		n[limbs-1] = Word(r.Uint64())
	}
	return n
}

func TestFromUint64RoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 2, 9, 1 << 31, 1<<32 - 1, 1 << 32, 1<<64 - 1}
	for _, x := range cases {
		n := FromUint64(x)
		got, ok := n.Uint64()
		if !ok || got != x {
			t.Errorf("FromUint64(%d).Uint64() = %d, %v", x, got, ok)
		}
	}
}

func TestUint64Overflow(t *testing.T) {
	n := Shl(FromUint64(1), 64)
	if _, ok := n.Uint64(); ok {
		t.Errorf("2^64 reported as fitting in uint64")
	}
}

func TestIsZeroIsOne(t *testing.T) {
	if !FromUint64(0).IsZero() || FromUint64(1).IsZero() {
		t.Errorf("IsZero wrong")
	}
	if !FromUint64(1).IsOne() || FromUint64(0).IsOne() || FromUint64(2).IsOne() {
		t.Errorf("IsOne wrong")
	}
	if Shl(FromUint64(1), 64).IsOne() {
		t.Errorf("2^64 reported as one")
	}
}

func TestBitLen(t *testing.T) {
	cases := []struct {
		x    Nat
		want int
	}{
		{nil, 0},
		{FromUint64(1), 1},
		{FromUint64(2), 2},
		{FromUint64(255), 8},
		{FromUint64(256), 9},
		{Shl(FromUint64(1), 100), 101},
	}
	for _, c := range cases {
		if got := c.x.BitLen(); got != c.want {
			t.Errorf("BitLen(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestBitAndTrailingZeros(t *testing.T) {
	x := Shl(FromUint64(0b1011), 70)
	if x.Bit(70) != 1 || x.Bit(71) != 1 || x.Bit(72) != 0 || x.Bit(73) != 1 {
		t.Errorf("Bit values wrong: %v", x)
	}
	if x.Bit(500) != 0 {
		t.Errorf("Bit beyond length should be 0")
	}
	if got := x.TrailingZeroBits(); got != 70 {
		t.Errorf("TrailingZeroBits = %d, want 70", got)
	}
	if got := Nat(nil).TrailingZeroBits(); got != 0 {
		t.Errorf("TrailingZeroBits(0) = %d, want 0", got)
	}
}

func TestCmp(t *testing.T) {
	a, b := FromUint64(5), FromUint64(7)
	if Cmp(a, b) != -1 || Cmp(b, a) != 1 || Cmp(a, a) != 0 {
		t.Errorf("Cmp small values wrong")
	}
	big1 := Shl(FromUint64(1), 64)
	if Cmp(big1, b) != 1 || Cmp(b, big1) != -1 {
		t.Errorf("Cmp across lengths wrong")
	}
}

func TestCmpWord(t *testing.T) {
	if CmpWord(nil, 0) != 0 || CmpWord(nil, 1) != -1 {
		t.Errorf("CmpWord zero cases wrong")
	}
	if CmpWord(FromUint64(5), 5) != 0 || CmpWord(FromUint64(5), 6) != -1 || CmpWord(FromUint64(5), 4) != 1 {
		t.Errorf("CmpWord single-limb cases wrong")
	}
	if CmpWord(Shl(FromUint64(1), 64), ^Word(0)) != 1 {
		t.Errorf("CmpWord multi-limb case wrong")
	}
}

func TestAddSubOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := randNat(r, r.Intn(6))
		y := randNat(r, r.Intn(6))
		sum := Add(x, y)
		wantSum := new(big.Int).Add(toBig(x), toBig(y))
		if toBig(sum).Cmp(wantSum) != 0 {
			t.Fatalf("Add(%v, %v) = %v, want %v", toBig(x), toBig(y), toBig(sum), wantSum)
		}
		back := Sub(sum, y)
		if Cmp(back, x) != 0 {
			t.Fatalf("Sub(Add(x,y), y) != x for x=%v y=%v", toBig(x), toBig(y))
		}
	}
}

func TestSubUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Sub(1, 2) did not panic")
		}
	}()
	Sub(FromUint64(1), FromUint64(2))
}

func TestSubWordUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("SubWord(0, 1) did not panic")
		}
	}()
	SubWord(nil, 1)
}

func TestAddWordSubWordOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		x := randNat(r, r.Intn(5))
		w := Word(r.Uint64())
		got := AddWord(x, w)
		want := new(big.Int).Add(toBig(x), new(big.Int).SetUint64(uint64(w)))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("AddWord(%v, %d) = %v, want %v", toBig(x), w, toBig(got), want)
		}
		if Cmp(SubWord(got, w), x) != 0 {
			t.Fatalf("SubWord(AddWord(x,w), w) != x")
		}
	}
}

func TestShiftOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		x := randNat(r, r.Intn(5))
		s := uint(r.Intn(200))
		shl := Shl(x, s)
		wantShl := new(big.Int).Lsh(toBig(x), s)
		if toBig(shl).Cmp(wantShl) != 0 {
			t.Fatalf("Shl(%v, %d) = %v, want %v", toBig(x), s, toBig(shl), wantShl)
		}
		shr := Shr(x, s)
		wantShr := new(big.Int).Rsh(toBig(x), s)
		if toBig(shr).Cmp(wantShr) != 0 {
			t.Fatalf("Shr(%v, %d) = %v, want %v", toBig(x), s, toBig(shr), wantShr)
		}
		if Cmp(Shr(shl, s), x) != 0 {
			t.Fatalf("Shr(Shl(x,s),s) != x")
		}
	}
}

func TestShiftEdgeCases(t *testing.T) {
	if !Shl(nil, 100).IsZero() || !Shr(nil, 100).IsZero() {
		t.Errorf("shifting zero should stay zero")
	}
	x := FromUint64(0xdeadbeef)
	if Cmp(Shl(x, 0), x) != 0 || Cmp(Shr(x, 0), x) != 0 {
		t.Errorf("shift by 0 should be identity")
	}
	if !Shr(x, 64).IsZero() {
		t.Errorf("Shr past the top should be zero")
	}
	// Whole-limb shift boundary.
	if got := Shl(FromUint64(1), wordBits); got.BitLen() != wordBits+1 {
		t.Errorf("Shl(1, wordBits).BitLen() = %d", got.BitLen())
	}
}

func TestMulOracle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1500; i++ {
		x := randNat(r, r.Intn(8))
		y := randNat(r, r.Intn(8))
		got := Mul(x, y)
		want := new(big.Int).Mul(toBig(x), toBig(y))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("Mul(%v, %v) = %v, want %v", toBig(x), toBig(y), toBig(got), want)
		}
	}
}

func TestMulWordOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		x := randNat(r, r.Intn(6))
		w := Word(r.Uint64())
		got := MulWord(x, w)
		want := new(big.Int).Mul(toBig(x), new(big.Int).SetUint64(uint64(w)))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("MulWord(%v, %d) wrong", toBig(x), w)
		}
	}
}

func TestMulAddWordOracle(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		x := randNat(r, r.Intn(6))
		w, a := Word(r.Uint64()), Word(r.Uint64())
		got := MulAddWordInPlace(x.Clone(), w, a)
		want := new(big.Int).Mul(toBig(x), new(big.Int).SetUint64(uint64(w)))
		want.Add(want, new(big.Int).SetUint64(uint64(a)))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("MulAddWordInPlace(%v, %d, %d) wrong", toBig(x), w, a)
		}
	}
}

func TestKaratsubaMatchesSchoolbook(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		x := randNat(r, karatsubaThreshold+r.Intn(40))
		y := randNat(r, karatsubaThreshold+r.Intn(40))
		fast := Mul(x, y)
		slow := mulSchoolbook(x, y)
		if Cmp(fast, slow) != 0 {
			t.Fatalf("karatsuba != schoolbook for %d x %d limbs", len(x), len(y))
		}
	}
}

func TestKaratsubaUnbalanced(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	x := randNat(r, karatsubaThreshold)
	y := randNat(r, karatsubaThreshold*5)
	if Cmp(Mul(x, y), mulSchoolbook(x, y)) != 0 {
		t.Fatalf("unbalanced karatsuba wrong")
	}
}

func TestMulIdentities(t *testing.T) {
	x := FromUint64(12345)
	if !Mul(x, nil).IsZero() || !Mul(nil, x).IsZero() {
		t.Errorf("x*0 != 0")
	}
	if Cmp(Mul(x, Nat{1}), x) != 0 {
		t.Errorf("x*1 != x")
	}
	if Cmp(Sqr(x), Mul(x, x)) != 0 {
		t.Errorf("Sqr != Mul(x,x)")
	}
}

func TestDivModOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		x := randNat(r, 1+r.Intn(8))
		y := randNat(r, 1+r.Intn(4))
		q, rem := DivMod(x, y)
		wantQ, wantR := new(big.Int).QuoRem(toBig(x), toBig(y), new(big.Int))
		if toBig(q).Cmp(wantQ) != 0 || toBig(rem).Cmp(wantR) != 0 {
			t.Fatalf("DivMod(%v, %v) = (%v, %v), want (%v, %v)",
				toBig(x), toBig(y), toBig(q), toBig(rem), wantQ, wantR)
		}
	}
}

// TestDivModResultsOwned: the quotient and remainder share no storage
// with the operands, so callers may round them in place; the general case
// costs two allocations (quotient, and one buffer for the normalized
// operands that becomes the remainder).
func TestDivModResultsOwned(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		x := randNat(r, 2+r.Intn(8))
		y := randNat(r, 1+r.Intn(4))
		if y.IsZero() {
			continue
		}
		x0, y0 := x.Clone(), y.Clone()
		q, rem := DivMod(x, y)
		for range 3 {
			q = AddWordInPlace(q, ^Word(0))
			rem = MulWordInPlace(rem, ^Word(0))
		}
		if Cmp(x, x0) != 0 || Cmp(y, y0) != 0 {
			t.Fatalf("mutating DivMod's results changed its operands")
		}
	}
	x, y := Nat{1, 2, 3, 4}, Nat{5, 6}
	if n := testing.AllocsPerRun(50, func() { DivMod(x, y) }); n != 2 {
		t.Errorf("DivMod allocates %v times, want 2", n)
	}
}

// TestDivModAddBackPath exercises Algorithm D's rare D6 add-back correction
// by using divisors crafted to make the first quotient-digit estimate too
// large: x just below q*y for a q whose top estimate overshoots.
func TestDivModAddBackPath(t *testing.T) {
	// Classic add-back trigger (from Hacker's Delight / Knuth): dividend
	// with max-value high words and divisor with a high word of 2^(W-1).
	half := Word(1) << (wordBits - 1)
	x := Nat{0, 0, ^Word(0) - 1, half - 1}
	y := Nat{^Word(0), half}
	q, rem := DivMod(norm(x), norm(y))
	wantQ, wantR := new(big.Int).QuoRem(toBig(norm(x)), toBig(norm(y)), new(big.Int))
	if toBig(q).Cmp(wantQ) != 0 || toBig(rem).Cmp(wantR) != 0 {
		t.Fatalf("add-back case: got (%v, %v), want (%v, %v)", toBig(q), toBig(rem), wantQ, wantR)
	}
}

func TestDivModStress(t *testing.T) {
	// Structured divisors: powers of two plus/minus small deltas, repeated
	// top words — the shapes that break naive quotient estimation.
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		y := randNat(r, 2+r.Intn(3))
		switch r.Intn(3) {
		case 0:
			y[len(y)-1] = ^Word(0)
		case 1:
			y[len(y)-1] = 1 << (wordBits - 1)
		}
		q := randNat(r, 1+r.Intn(3))
		extra := randNat(r, r.Intn(len(y)+1))
		if Cmp(extra, y) >= 0 {
			_, extraN := DivMod(extra, y)
			extra = extraN
		}
		x := Add(Mul(q, y), extra)
		gotQ, gotR := DivMod(x, y)
		if Cmp(gotQ, q) != 0 || Cmp(gotR, extra) != 0 {
			t.Fatalf("DivMod reconstruction failed: x=%v y=%v", toBig(x), toBig(y))
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	for _, f := range []func(){
		func() { DivMod(FromUint64(1), nil) },
		func() { DivModWord(FromUint64(1), 0) },
		func() { DivModSmallQuotient(FromUint64(1), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("division by zero did not panic")
				}
			}()
			f()
		}()
	}
}

func TestDivModWordOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		x := randNat(r, r.Intn(6))
		w := Word(r.Uint64())
		if w == 0 {
			w = 1
		}
		q, rem := DivModWord(x, w)
		wb := new(big.Int).SetUint64(uint64(w))
		wantQ, wantR := new(big.Int).QuoRem(toBig(x), wb, new(big.Int))
		if toBig(q).Cmp(wantQ) != 0 || uint64(rem) != wantR.Uint64() {
			t.Fatalf("DivModWord(%v, %d) wrong", toBig(x), w)
		}
	}
}

func TestDivModSmallQuotient(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		y := randNat(r, 1+r.Intn(6))
		q := Word(r.Intn(100))
		var rem Nat
		if !y.IsZero() {
			rem = randNat(r, r.Intn(len(y)+1))
			if Cmp(rem, y) >= 0 {
				_, rem = DivMod(rem, y)
			}
		}
		x := Add(MulWord(y, q), rem)
		gotQ, gotR := DivModSmallQuotient(x, y)
		if gotQ != q || Cmp(gotR, rem) != 0 {
			t.Fatalf("DivModSmallQuotient: got q=%d r=%v, want q=%d r=%v (x=%v y=%v)",
				gotQ, toBig(gotR), q, toBig(rem), toBig(x), toBig(y))
		}
	}
}

func TestDivModSmallQuotientAgainstDivMod(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		y := randNat(r, 1+r.Intn(5))
		x := Add(MulWord(y, Word(r.Intn(37))), randSmaller(r, y))
		q1, r1 := DivModSmallQuotient(x, y)
		q2, r2 := DivMod(x, y)
		q2w, _ := q2.Uint64()
		if uint64(q1) != q2w || Cmp(r1, r2) != 0 {
			t.Fatalf("DivModSmallQuotient disagrees with DivMod")
		}
	}
}

// randSmaller returns a uniform-ish random Nat strictly less than y (y > 0).
func randSmaller(r *rand.Rand, y Nat) Nat {
	c := randNat(r, len(y))
	_, rem := DivMod(c, y)
	return rem
}

func TestPow(t *testing.T) {
	cases := []struct {
		b    uint64
		n    uint
		want string
	}{
		{10, 0, "1"},
		{10, 1, "10"},
		{10, 19, "10000000000000000000"},
		{10, 30, "1000000000000000000000000000000"},
		{2, 100, new(big.Int).Lsh(big.NewInt(1), 100).String()},
		{0, 0, "1"},
		{0, 5, "0"},
		{1, 1000, "1"},
	}
	for _, c := range cases {
		if got := PowUint(c.b, c.n).String(); got != c.want {
			t.Errorf("PowUint(%d, %d) = %s, want %s", c.b, c.n, got, c.want)
		}
	}
}

func TestPowOracle(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 200; i++ {
		b := uint64(r.Intn(1000))
		n := uint(r.Intn(64))
		got := PowUint(b, n)
		want := new(big.Int).Exp(new(big.Int).SetUint64(b), new(big.Int).SetUint64(uint64(n)), nil)
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("PowUint(%d, %d) wrong", b, n)
		}
	}
}

func TestPowCache(t *testing.T) {
	c := NewPowCache(10, 1000)
	for _, n := range []uint{0, 5, 3, 325, 100} {
		got := c.Pow(n)
		want := PowUint(10, n)
		if Cmp(got, want) != 0 {
			t.Errorf("PowCache.Pow(%d) wrong", n)
		}
	}
	if Cmp(c.Base(), FromUint64(10)) != 0 {
		t.Errorf("PowCache.Base wrong")
	}
}

func TestTextRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		x := randNat(r, r.Intn(6))
		for _, base := range []int{2, 3, 8, 10, 16, 17, 36} {
			s := x.Text(base)
			want := toBig(x).Text(base)
			if s != want {
				t.Fatalf("Text(%v, %d) = %q, want %q", toBig(x), base, s, want)
			}
			back, err := ParseText(s, base)
			if err != nil {
				t.Fatalf("ParseText(%q, %d): %v", s, base, err)
			}
			if Cmp(back, x) != 0 {
				t.Fatalf("ParseText(Text(x)) != x in base %d", base)
			}
		}
	}
}

func TestTextZero(t *testing.T) {
	if Nat(nil).String() != "0" {
		t.Errorf("String(0) = %q", Nat(nil).String())
	}
	if Nat(nil).Text(2) != "0" {
		t.Errorf("Text(0, 2) = %q", Nat(nil).Text(2))
	}
}

func TestParseTextErrors(t *testing.T) {
	for _, c := range []struct {
		s    string
		base int
	}{
		{"", 10}, {"12x", 10}, {"19", 8}, {"z", 35}, {"-3", 10}, {" 3", 10},
	} {
		if _, err := ParseText(c.s, c.base); err == nil {
			t.Errorf("ParseText(%q, %d) unexpectedly succeeded", c.s, c.base)
		}
	}
	if _, err := ParseText("10", 1); err == nil {
		t.Errorf("ParseText base 1 unexpectedly succeeded")
	}
	if got, err := ParseText("FF", 16); err != nil || Cmp(got, FromUint64(255)) != 0 {
		t.Errorf("ParseText upper-case hex failed: %v %v", got, err)
	}
}

func TestTextIllegalBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Text(x, 37) did not panic")
		}
	}()
	FromUint64(1).Text(37)
}

// Property: (x+y)-y == x for arbitrary values via testing/quick.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		x, y := natFromUint64s(xs), natFromUint64s(ys)
		return Cmp(Sub(Add(x, y), y), x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: multiplication is commutative and distributes over addition.
func TestQuickMulProperties(t *testing.T) {
	f := func(xs, ys, zs []uint64) bool {
		x, y, z := natFromUint64s(xs), natFromUint64s(ys), natFromUint64s(zs)
		if Cmp(Mul(x, y), Mul(y, x)) != 0 {
			return false
		}
		lhs := Mul(x, Add(y, z))
		rhs := Add(Mul(x, y), Mul(x, z))
		return Cmp(lhs, rhs) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: x == q*y + r with r < y after DivMod.
func TestQuickDivModInvariant(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		x, y := natFromUint64s(xs), natFromUint64s(ys)
		if y.IsZero() {
			y = Nat{1}
		}
		q, r := DivMod(x, y)
		if Cmp(r, y) >= 0 {
			return false
		}
		return Cmp(Add(Mul(q, y), r), x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: shifting left then right by the same amount is the identity.
func TestQuickShiftInverse(t *testing.T) {
	f := func(xs []uint64, s uint16) bool {
		x := natFromUint64s(xs)
		return Cmp(Shr(Shl(x, uint(s%512)), uint(s%512)), x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func natFromUint64s(xs []uint64) Nat {
	var n Nat
	for _, x := range xs {
		n = Add(Shl(n, 64), FromUint64(x))
	}
	return n
}

func TestCloneIndependence(t *testing.T) {
	x := FromUint64(42)
	c := x.Clone()
	c[0] = 43
	if x[0] != 42 {
		t.Errorf("Clone shares storage")
	}
	if Nat(nil).Clone() != nil {
		t.Errorf("Clone(0) should be nil")
	}
}

func BenchmarkMulSchoolbook16(b *testing.B) { benchMulN(b, 16) }
func BenchmarkMul64(b *testing.B)           { benchMulN(b, 64) }
func BenchmarkMul256(b *testing.B)          { benchMulN(b, 256) }

func benchMulN(b *testing.B, limbs int) {
	r := rand.New(rand.NewSource(99))
	x, y := randNat(r, limbs), randNat(r, limbs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

// BenchmarkAblationKaratsubaThreshold compares schoolbook and Karatsuba at
// several sizes around the threshold (DESIGN.md Ablation C).
func BenchmarkAblationKaratsubaThreshold(b *testing.B) {
	r := rand.New(rand.NewSource(100))
	for _, limbs := range []int{16, 24, 32, 64, 128} {
		x, y := randNat(r, limbs), randNat(r, limbs)
		b.Run("schoolbook/"+itoa(limbs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mulSchoolbook(x, y)
			}
		})
		b.Run("karatsuba/"+itoa(limbs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				karatsuba(x, y)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkDivMod(b *testing.B) {
	r := rand.New(rand.NewSource(101))
	x, y := randNat(r, 40), randNat(r, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DivMod(x, y)
	}
}

func BenchmarkDivModSmallQuotient(b *testing.B) {
	r := rand.New(rand.NewSource(102))
	y := randNat(r, 20)
	x := Add(MulWord(y, 7), randSmaller(r, y))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DivModSmallQuotient(x, y)
	}
}
