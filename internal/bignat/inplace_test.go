package bignat

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

func TestMulWordInPlaceMatchesMulWord(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 3000; i++ {
		x := randNat(r, r.Intn(6))
		w := Word(r.Uint64())
		want := MulWord(x, w)
		got := MulWordInPlace(x.Clone(), w)
		if Cmp(got, want) != 0 {
			t.Fatalf("MulWordInPlace(%v, %d) = %v, want %v", toBig(x), w, toBig(got), toBig(want))
		}
	}
}

func TestMulWordInPlaceReusesStorage(t *testing.T) {
	x := make(Nat, 2, 4)
	x[0], x[1] = 7, 9
	got := MulWordInPlace(x, 3)
	if &got[0] != &x[0] {
		t.Errorf("storage not reused")
	}
	if Cmp(got, MulWord(Nat{7, 9}, 3)) != 0 {
		t.Errorf("wrong product")
	}
	// Identity and zero fast paths.
	if y := MulWordInPlace(Nat{5}, 1); len(y) != 1 || y[0] != 5 {
		t.Errorf("×1 wrong")
	}
	if y := MulWordInPlace(Nat{5}, 0); len(y) != 0 {
		t.Errorf("×0 wrong")
	}
}

func TestAddWordInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		x := randNat(r, r.Intn(5))
		w := Word(r.Uint64())
		want := AddWord(x, w)
		got := AddWordInPlace(x.Clone(), w)
		if Cmp(got, want) != 0 {
			t.Fatalf("AddWordInPlace mismatch")
		}
	}
	// Carry ripple through all-ones limbs.
	x := Nat{^Word(0), ^Word(0)}
	got := AddWordInPlace(x.Clone(), 1)
	if Cmp(got, AddWord(x, 1)) != 0 {
		t.Errorf("ripple carry wrong")
	}
}

func TestSubInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 3000; i++ {
		y := randNat(r, r.Intn(5))
		x := Add(y, randNat(r, r.Intn(5)))
		want := Sub(x, y)
		got := SubInPlace(x.Clone(), y)
		if Cmp(got, want) != 0 {
			t.Fatalf("SubInPlace mismatch")
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("SubInPlace underflow did not panic")
		}
	}()
	SubInPlace(Nat{1}, Nat{2})
}

func TestAddInto(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 3000; i++ {
		x := randNat(r, r.Intn(5))
		y := randNat(r, r.Intn(5))
		want := Add(x, y)
		var dst Nat
		switch r.Intn(3) {
		case 0: // nil dst
		case 1: // spare capacity
			dst = make(Nat, 0, 12)
		case 2: // dst aliases x
			x = x.Clone()
			dst = x
		}
		got := AddInto(dst, x, y)
		if Cmp(got, want) != 0 {
			t.Fatalf("AddInto mismatch: %v + %v", toBig(x), toBig(y))
		}
	}
}

func TestAddIntoReusesCapacity(t *testing.T) {
	dst := make(Nat, 0, 8)
	got := AddInto(dst, Nat{1, 2}, Nat{3})
	if &got[0] != &dst[:1][0] {
		t.Errorf("AddInto did not reuse dst storage")
	}
}

func TestDivModSmallQuotientInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 5000; i++ {
		y := randNat(r, 1+r.Intn(6))
		q := Word(r.Intn(100))
		rem := randSmaller(r, y)
		x := Add(MulWord(y, q), rem)
		gotQ, gotR := DivModSmallQuotientInPlace(x.Clone(), y)
		if gotQ != q || Cmp(gotR, rem) != 0 {
			t.Fatalf("in-place divmod: got q=%d r=%v, want q=%d r=%v (y=%v)",
				gotQ, toBig(gotR), q, toBig(rem), toBig(y))
		}
	}
}

func TestDivModSmallQuotientInPlaceEdges(t *testing.T) {
	// x < y leaves x untouched with q=0.
	x := Nat{5}
	q, r := DivModSmallQuotientInPlace(x, Nat{9})
	if q != 0 || Cmp(r, Nat{5}) != 0 {
		t.Errorf("x<y case wrong: %d %v", q, r)
	}
	// Exact multiples leave zero remainders.
	y := Nat{^Word(0), 3}
	q, r = DivModSmallQuotientInPlace(MulWord(y, 35), y)
	if q != 35 || !r.IsZero() {
		t.Errorf("exact multiple: q=%d r=%v", q, toBig(r))
	}
	// Divide by zero panics.
	defer func() {
		if recover() == nil {
			t.Errorf("divide by zero did not panic")
		}
	}()
	DivModSmallQuotientInPlace(Nat{1}, nil)
}

func TestDivModSmallQuotientInPlaceStress(t *testing.T) {
	// Divisors with extreme top words push the estimate to its worst case
	// and force the add-back path.
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 5000; i++ {
		y := randNat(r, 2+r.Intn(3))
		switch r.Intn(3) {
		case 0:
			y[len(y)-1] = 1
		case 1:
			y[len(y)-1] = ^Word(0)
		}
		y = norm(y)
		if y.IsZero() {
			continue
		}
		q := Word(r.Intn(37))
		rem := randSmaller(r, y)
		x := Add(MulWord(y, q), rem)
		gotQ, gotR := DivModSmallQuotientInPlace(x.Clone(), y)
		if gotQ != q || Cmp(gotR, rem) != 0 {
			t.Fatalf("stress divmod mismatch: y=%v q=%d", toBig(y), q)
		}
	}
}

func TestShrIntoOracle(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 2000; i++ {
		x := randNat(r, r.Intn(6))
		s := uint(r.Intn(4 * wordBits))
		want := Shr(x, s)
		if got := ShrInto(nil, x, s); Cmp(got, want) != 0 {
			t.Fatalf("ShrInto(nil, %v, %d) = %v, want %v", toBig(x), s, toBig(got), toBig(want))
		}
		// In place: dst is x itself.
		y := x.Clone()
		if got := ShrInto(y, y, s); Cmp(got, want) != 0 {
			t.Fatalf("ShrInto(x, x, %d) = %v, want %v", s, toBig(got), toBig(want))
		}
	}
}

func TestMulAddWordInPlaceReusesStorage(t *testing.T) {
	x := make(Nat, 1, 3)
	x[0] = 7
	got := MulAddWordInPlace(x, 10, 3)
	if &got[0] != &x[0] || Cmp(got, Nat{73}) != 0 {
		t.Errorf("MulAddWordInPlace(7, 10, 3) = %v, storage reused %v", got, &got[0] == &x[0])
	}
	// From zero: the addend alone, in the given storage.
	z := make(Nat, 0, 2)
	if got := MulAddWordInPlace(z, 10, 0); len(got) != 0 {
		t.Errorf("0*10 + 0 = %v, want 0", got)
	}
	if got := MulAddWordInPlace(z, 10, 5); Cmp(got, Nat{5}) != 0 || &got[:1][0] != &z[:1][0] {
		t.Errorf("0*10 + 5 = %v, want 5 in place", got)
	}
}

func TestFromDigitsOracle(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 1000; i++ {
		base := 2 + r.Intn(35)
		ds := make([]byte, r.Intn(120))
		text := make([]byte, len(ds))
		allMax := i%4 == 0 // the largest value of its length: the size bound is tight
		for j := range ds {
			ds[j] = byte(r.Intn(base))
			if allMax {
				ds[j] = byte(base - 1)
			}
			text[j] = digitAlphabet[ds[j]]
		}
		want := new(big.Int)
		if len(text) > 0 {
			want.SetString(string(text), base)
		}
		got := FromDigits(ds, base)
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("FromDigits(%s, %d) = %v, want %v", text, base, toBig(got), want)
		}
		if bound := (len(ds)*bits.Len(uint(base-1)) + wordBits - 1) / wordBits; cap(got) > bound {
			t.Fatalf("FromDigits(%s, %d) regrew its buffer to %d limbs, bound %d", text, base, cap(got), bound)
		}
	}
}

func BenchmarkDivModSmallQuotientInPlace(b *testing.B) {
	r := rand.New(rand.NewSource(26))
	y := randNat(r, 20)
	x := Add(MulWord(y, 7), randSmaller(r, y))
	buf := make(Nat, len(x), len(x)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:len(x)]
		copy(buf, x)
		DivModSmallQuotientInPlace(buf, y)
	}
}
