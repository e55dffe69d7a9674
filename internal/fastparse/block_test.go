package fastparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"floatprint/internal/schryer"
)

func TestIsEightDigits(t *testing.T) {
	load := func(s string) uint64 { return binary.LittleEndian.Uint64([]byte(s)) }
	if !isEightDigits(load("01234567")) || !isEightDigits(load("99999999")) || !isEightDigits(load("00000000")) {
		t.Fatalf("isEightDigits rejected all-digit input")
	}
	// Flip each position in turn to every non-digit neighbor of the
	// digit range, plus a few characters the scanner actually meets.
	for pos := 0; pos < 8; pos++ {
		for _, c := range []byte{'0' - 1, '9' + 1, '.', 'e', '-', '+', 0x00, 0xFF, ' '} {
			b := []byte("13579246")
			b[pos] = c
			if isEightDigits(binary.LittleEndian.Uint64(b)) {
				t.Fatalf("isEightDigits accepted %q (byte %#x at %d)", b, c, pos)
			}
		}
	}
}

func TestEightDigitsValue(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10000; i++ {
		want := uint64(rng.Intn(100000000))
		s := fmt.Sprintf("%08d", want)
		if got := eightDigitsValue(binary.LittleEndian.Uint64([]byte(s))); got != want {
			t.Fatalf("eightDigitsValue(%q) = %d, want %d", s, got, want)
		}
	}
}

// blockScanInputs is the block-scan stimulus set: handcrafted edge cases
// around every dp/trunc/19-digit branch, plus deterministic random
// literals that exercise long digit runs and exponents.
func blockScanInputs() []string {
	in := []string{
		"0", "-0", "+0", "000", "0.0", "-0.000", "1", "-1", "12345678",
		"123456789", "1234567890123456789", "12345678901234567890",
		"99999999999999999999999999", "10000000000000000001",
		"0.1", ".5", "-.5", "1.", "1.e5", "0.00123", "000.00123",
		"123.000", "1234567890123456789.05", "1234567890123456789.50",
		"3.141592653589793", "2.2250738585072014e-308", "1.7976931348623157e308",
		"5e-324", "4.9e-324", "1e23", "-1e23", "8.98846567431158e307",
		"1e0", "1e+0", "1e-0", "1E10", "1e-10", "123e45", "123E-45",
		"0.000000000000000000000000000000001", "1000000000000000000000000",
		// Grammar the scanner must decline (the exact reader covers it).
		"", "+", "-", ".", "-.", "1e", "1e+", "1e-", "1ex", "1.2.3",
		"1x", "x1", "1 ", " 1", "nan", "inf", "-inf", "NaN", "Infinity",
		"1#", "12##", "1#.#", "1@5", "12@-3", "1e99999999", "1e16777217",
		"--1", "++1", "1..", "..1", "1e5e5", "0x10", "1_000",
	}
	rng := rand.New(rand.NewSource(64))
	digits := "0123456789"
	for i := 0; i < 4000; i++ {
		var b []byte
		if rng.Intn(2) == 0 {
			b = append(b, "+-"[rng.Intn(2)])
		}
		for n := rng.Intn(28); n > 0; n-- {
			b = append(b, digits[rng.Intn(10)])
		}
		if rng.Intn(2) == 0 {
			b = append(b, '.')
			for n := rng.Intn(28); n > 0; n-- {
				b = append(b, digits[rng.Intn(10)])
			}
		}
		if rng.Intn(3) == 0 {
			b = append(b, "eE"[rng.Intn(2)])
			if rng.Intn(2) == 0 {
				b = append(b, "+-"[rng.Intn(2)])
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				b = append(b, digits[rng.Intn(10)])
			}
		}
		in = append(in, string(b))
	}
	return in
}

// TestParseToken64StopsAtSeparators pins the fused tokenizer contract:
// the token ends exactly at the first separator byte.
func TestParseToken64StopsAtSeparators(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
		n    int
	}{
		{"1.5\n2.5", 1.5, 3},
		{"1.5,2.5", 1.5, 3},
		{"-7e2 8", -700, 4},
		{"3\t4", 3, 1},
		{"0.25\r\n", 0.25, 4},
		{"9", 9, 1},
	} {
		f, n, ok := ParseToken64([]byte(c.in))
		if !ok || f != c.want || n != c.n {
			t.Fatalf("ParseToken64(%q) = (%v, %d, %v), want (%v, %d, true)",
				c.in, f, n, ok, c.want, c.n)
		}
	}
	// A non-separator terminator declines the whole token.
	for _, in := range []string{"1.5x", "1.5#2", "12@3", "1e5e5"} {
		if _, _, ok := ParseToken64([]byte(in)); ok {
			t.Fatalf("ParseToken64(%q) certified, want decline", in)
		}
	}
}

// parseBytes64 is ParseToken64 over a whole byte token: the fused
// scanner must consume every byte of b.
func parseBytes64(b []byte) (float64, bool) {
	f, n, ok := ParseToken64(b)
	return f, ok && n == len(b)
}

// TestParseBytes64VsStrconv certifies the end-to-end block kernel
// against the strconv oracle on the grammar intersection.
func TestParseBytes64VsStrconv(t *testing.T) {
	for _, s := range blockScanInputs() {
		f, ok := parseBytes64([]byte(s))
		if !ok {
			continue
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			// scanBytes accepts "1." / ".5"-style forms strconv also
			// accepts; anything else here would be a grammar leak.
			t.Fatalf("parseBytes64 accepted %q but strconv rejects: %v", s, err)
		}
		if math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("parseBytes64(%q) = %x, strconv = %x",
				s, math.Float64bits(f), math.Float64bits(want))
		}
	}
}

func TestParseBytes64Corpus(t *testing.T) {
	vals := schryer.Corpus()
	if testing.Short() {
		vals = schryer.CorpusN(20000)
	}
	declined := 0
	for _, v := range vals {
		s := strconv.FormatFloat(v, 'g', -1, 64)
		f, ok := parseBytes64([]byte(s))
		if !ok {
			declined++
			continue
		}
		if math.Float64bits(f) != math.Float64bits(v) {
			t.Fatalf("parseBytes64(%q) = %x, want %x",
				s, math.Float64bits(f), math.Float64bits(v))
		}
	}
	// The decline rate must stay in the same band as the per-value fast
	// path (0.0104% over the corpus): ties and near-subnormals only.
	if max := len(vals) / 1000; declined > max {
		t.Fatalf("%d/%d declines, want <= %d", declined, len(vals), max)
	}
}

func BenchmarkParseToken64(b *testing.B) {
	tok := []byte("3.141592653589793")
	b.SetBytes(int64(len(tok)))
	for i := 0; i < b.N; i++ {
		if _, _, ok := ParseToken64(tok); !ok {
			b.Fatal("declined")
		}
	}
}
