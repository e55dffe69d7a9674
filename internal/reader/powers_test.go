package reader

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"floatprint/internal/bignat"
	"floatprint/internal/fpformat"
)

// TestCarryIntoNextBinadeOwnsMantissa: a value that rounds up into the
// next binade gets the mantissa b^(p−1), which the reader reads from the
// shared power table.  The returned Value must own a copy: mutating its
// mantissa in place must leave the table's 2^52 intact.
func TestCarryIntoNextBinadeOwnsMantissa(t *testing.T) {
	v, err := Parse("9007199254740991.75", 10, fpformat.Binary64, NearestEven)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.Float64(); f != 1<<53 {
		t.Fatalf("read %v, want 2^53", f)
	}
	want := bignat.Shl(bignat.Nat{1}, 52)
	if bignat.Cmp(v.F, want) != 0 || v.E != 1 {
		t.Fatalf("F = %v, E = %d; want 2^52, 1", v.F, v.E)
	}
	bignat.MulWordInPlace(v.F, 3)
	if got := bignat.Powers(2).Pow(52); bignat.Cmp(got, want) != 0 {
		t.Fatalf("mutating a parsed mantissa changed the shared 2^52 to %v", got)
	}
}

// TestConcurrentParsesGrowSharedPowers: parses in bases 3, 7 and 36 read
// (and, for long inputs, extend) the shared power tables from several
// goroutines at once.  Every result must match math/big, and the tables
// must still hold true powers afterwards.  Run under -race.
func TestConcurrentParsesGrowSharedPowers(t *testing.T) {
	type input struct {
		text string
		base int
		want float64
	}
	r := rand.New(rand.NewSource(36))
	var inputs []input
	for _, base := range []int{3, 7, 36} {
		// Lengths rise, so the goroutines reach each new exponent
		// together and the tables grow while they read.
		for n := 1; n <= 1500; n += 1 + n/4 {
			var sb strings.Builder
			for range n {
				sb.WriteByte(strconv.FormatInt(int64(r.Intn(base)), base)[0])
			}
			digits := sb.String()
			k := r.Intn(61) - 30
			num, _ := new(big.Int).SetString(digits, base)
			pow := new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(abs(k-n))), nil)
			x := new(big.Rat).SetInt(num)
			if k >= n {
				x.Mul(x, new(big.Rat).SetInt(pow))
			} else {
				x.Quo(x, new(big.Rat).SetInt(pow))
			}
			want, _ := x.Float64()
			inputs = append(inputs, input{"0." + digits + "@" + strconv.Itoa(k), base, want})
		}
	}

	const workers = 6
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range inputs {
				in := inputs[(i+w)%len(inputs)]
				v, err := Parse(in.text, in.base, fpformat.Binary64, NearestEven)
				if err != nil {
					t.Errorf("base %d, %d chars: %v", in.base, len(in.text), err)
					return
				}
				got, err := v.Float64()
				if err != nil || math.Float64bits(got) != math.Float64bits(in.want) {
					t.Errorf("base %d, %d chars: read %v (%v), want %v", in.base, len(in.text), got, err, in.want)
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, base := range []int{3, 7, 36} {
		pows := bignat.Powers(base)
		for _, n := range []int{0, 1, 100, pows.Cached() - 1} {
			want := new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(n)), nil)
			if got := pows.Pow(uint(n)); got.Text(10) != want.Text(10) {
				t.Errorf("shared table: %d^%d is wrong after concurrent parses", base, n)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
