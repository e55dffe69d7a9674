package floatprint

// Differential coverage for the read side: the Eisel–Lemire fast path
// against the exact big-integer reader over the full Schryer corpus,
// the base-aware special-name sweep ("inf" is a perfectly good number
// in base 24), and the parse path-mix counters.

import (
	"errors"
	"math"
	"testing"

	"floatprint/internal/fastparse"
	"floatprint/internal/fpformat"
	"floatprint/internal/reader"
	"floatprint/internal/schryer"
)

// TestParseFastVsExactCorpus is the acceptance differential: for every
// corpus value, the shortest rendering must (a) read back bit-exactly
// through the full Parse pipeline and (b) whenever the fast path
// certifies it, yield the very same bits the exact reader produces.
// The fast path declining is always allowed; disagreeing never is.
func TestParseFastVsExactCorpus(t *testing.T) {
	values := schryer.Corpus()
	if testing.Short() {
		values = schryer.CorpusN(20000)
	}
	var hits, misses int
	buf := make([]byte, 0, 32)
	for _, v := range values {
		buf = AppendShortest(buf[:0], v)
		for _, s := range []string{string(buf), "-" + string(buf)} {
			want := v
			if s[0] == '-' {
				want = -v
			}
			got, err := Parse(s, nil)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Parse(%q) = %g (%#x), err=%v; want %g (%#x)",
					s, got, math.Float64bits(got), err, want, math.Float64bits(want))
			}
			fast, _, ok := fastparse.Parse64(s)
			if !ok {
				misses++
				continue
			}
			hits++
			if math.Float64bits(fast) != math.Float64bits(want) {
				t.Fatalf("fastparse.Parse64(%q) certified %g (%#x); exact reader says %g (%#x)",
					s, fast, math.Float64bits(fast), want, math.Float64bits(want))
			}
		}
	}
	total := hits + misses
	t.Logf("fast path certified %d/%d shortest strings (%.1f%%)",
		hits, total, 100*float64(hits)/float64(total))
	// Shortest strings are short decimals well inside the pow10 table;
	// only ties and near-subnormals should decline.
	if hits < total*9/10 {
		t.Fatalf("fast-path hit rate %d/%d below 90%% on shortest strings", hits, total)
	}
}

// TestParseFastVsExactReader32 runs the same differential at binary32
// geometry, against reader.Parse directly.
func TestParseFastVsExactReader32(t *testing.T) {
	n := 50000
	if testing.Short() {
		n = 5000
	}
	for _, v := range schryer.CorpusN(n) {
		w := float32(v)
		if math.IsInf(float64(w), 0) {
			continue
		}
		s := Shortest32(w)
		fast, _, ok := fastparse.Read32(s, reader.NearestEven)
		if !ok {
			continue
		}
		ev, err := reader.Parse(s, 10, fpformat.Binary32, reader.NearestEven)
		if err != nil {
			t.Fatalf("reader.Parse(%q): %v", s, err)
		}
		want, err := ev.Float32()
		if err != nil {
			t.Fatalf("exact value of %q: %v", s, err)
		}
		if math.Float32bits(fast) != math.Float32bits(want) {
			t.Fatalf("fastparse.Read32(%q) certified %g (%#x); exact reader says %g (%#x)",
				s, fast, math.Float32bits(fast), want, math.Float32bits(want))
		}
	}
}

// TestParseMarkedLiterals pins the values of '#'-marked and '@'-exponent
// literals, which the fast path's scanner declines and the exact reader
// decides: under every reader mode with a base-10 fast path, Parse reads
// '#' as 0 and '@' as the exponent marker, Parse32 agrees, and the trace
// records an exact parse after a fast-path miss.
func TestParseMarkedLiterals(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
	}{
		{"100.000000000000000#####", 100},
		{"1#", 10},
		{"12.5##", 12.5},
		{"#", 0},
		{"-0.#", math.Copysign(0, -1)},
		{"1.5@2", 150},
		{"-25@-1", -2.5},
	} {
		for _, r := range []ReaderRounding{ReaderNearestEven, ReaderTowardNegInf, ReaderTowardPosInf} {
			var tr Trace
			got, err := ParseTraced(c.in, &Options{Reader: r}, &tr)
			if err != nil || math.Float64bits(got) != math.Float64bits(c.want) {
				t.Fatalf("Parse(%q, %v) = %g (%#x), %v; want %g (%#x)",
					c.in, r, got, math.Float64bits(got), err, c.want, math.Float64bits(c.want))
			}
			if tr.Backend != TraceBackendExactParse || !tr.FastPathMiss {
				t.Errorf("Parse(%q, %v) traced %v (fast-path miss %v), want an exact parse after a miss",
					c.in, r, tr.Backend, tr.FastPathMiss)
			}
		}
		got32, err := Parse32(c.in, nil)
		if err != nil || math.Float32bits(got32) != math.Float32bits(float32(c.want)) {
			t.Fatalf("Parse32(%q) = %g, %v; want %g", c.in, got32, err, c.want)
		}
	}
}

// TestParseSpecialsBaseAware pins the satellite bugfix: "inf", "nan",
// and "infinity" are special names only while they contain at least one
// rune that is not a digit of the requested base.  In base 24 and up,
// i/n/f are digits and "inf" denotes 18·24²+23·24+15; pre-fix, the
// special check fired before the base was consulted and swallowed these.
func TestParseSpecialsBaseAware(t *testing.T) {
	digitVal := func(s string, base int) float64 {
		v := 0.0
		for i := 0; i < len(s); i++ {
			d := int(s[i] - 'a' + 10)
			if s[i] <= '9' {
				d = int(s[i] - '0')
			}
			if d >= base {
				t.Fatalf("digitVal: %q is not a base-%d numeral", s, base)
			}
			v = v*float64(base) + float64(d)
		}
		return v
	}

	// Below base 24 (or 35 for "infinity"), the names stay special.
	for _, base := range []int{10, 16, 23} {
		for _, in := range []string{"inf", "+inf", "infinity"} {
			got, err := Parse(in, &Options{Base: base})
			if err != nil || !math.IsInf(got, 1) {
				t.Fatalf("Parse(%q, base=%d) = %g, %v; want +Inf", in, base, got, err)
			}
		}
		if got, err := Parse("-inf", &Options{Base: base}); err != nil || !math.IsInf(got, -1) {
			t.Fatalf("Parse(%q, base=%d) = %g, %v; want -Inf", "-inf", base, got, err)
		}
		if got, err := Parse("nan", &Options{Base: base}); err != nil || !math.IsNaN(got) {
			t.Fatalf("Parse(%q, base=%d) = %g, %v; want NaN", "nan", base, got, err)
		}
	}

	// At base 24+ every rune of "inf"/"nan" is a digit: numbers, not names.
	for _, base := range []int{24, 30, 36} {
		for _, name := range []string{"inf", "nan"} {
			want := digitVal(name, base)
			got, err := Parse(name, &Options{Base: base})
			if err != nil || got != want {
				t.Fatalf("Parse(%q, base=%d) = %g, %v; want the numeral %g", name, base, got, err, want)
			}
			if got, err := Parse("-"+name, &Options{Base: base}); err != nil || got != -want {
				t.Fatalf("Parse(%q, base=%d) = %g, %v; want %g", "-"+name, base, got, err, -want)
			}
		}
	}

	// "infinity" needs 'y' (=34) and 't' (=29): digits only from base 35.
	if got, err := Parse("infinity", &Options{Base: 34}); err != nil || !math.IsInf(got, 1) {
		t.Fatalf("Parse(\"infinity\", base=34) = %g, %v; want +Inf ('y' is not a digit)", got, err)
	}
	for _, base := range []int{35, 36} {
		want := digitVal("infinity", base)
		got, err := Parse("infinity", &Options{Base: base})
		if err != nil || got != want {
			t.Fatalf("Parse(\"infinity\", base=%d) = %g, %v; want the numeral %g", base, got, err, want)
		}
	}

	// Float32 read side shares parseSpecial; spot-check both regimes.
	if got, err := Parse32("inf", &Options{Base: 16}); err != nil || !math.IsInf(float64(got), 1) {
		t.Fatalf("Parse32(\"inf\", base=16) = %g, %v; want +Inf", got, err)
	}
	if got, err := Parse32("inf", &Options{Base: 36}); err != nil || got != float32(digitVal("inf", 36)) {
		t.Fatalf("Parse32(\"inf\", base=36) = %g, %v; want the numeral", got, err)
	}
}

// TestDirectedParseErrorIdentity is the satellite differential for the
// directed parse fast path, pinning error *identity*, not just value
// identity: for every adversarial input, the default-dispatch parse and
// the forced-exact parse must agree on the returned bits, on whether an
// error occurred, and on the error text byte for byte.  The deliberate
// focus is the PR-8 bug class — a value just above MaxFloat64 under the
// truncating direction saturates at MaxFloat64 *with* ErrRange, so a
// fast path that truncates to the same bits but drops the error would
// pass any value-only differential.
func TestDirectedParseErrorIdentity(t *testing.T) {
	inputs := []string{
		// Overflow frontier: saturates (MaxFloat64 + ErrRange) under the
		// truncating direction, ±Inf + ErrRange under the outward one.
		"1.7976931348623158e308", "-1.7976931348623158e308",
		"1.7976931348623157e308", "-1.7976931348623157e308",
		"1e309", "-1e309", "2e308", "1e999", "-1e999", "1e99999",
		"179769313486231580793728971405303415261810836789423e258",
		// Underflow frontier: denormals and the sub-denormal band (rounds
		// to ±0 or the smallest denormal depending on direction, no error).
		"5e-324", "-5e-324", "1e-323", "4.9e-324", "1e-324", "1e-400",
		"2.2250738585072014e-308", "2.2250738585072011e-308",
		// Ordinary traffic, ties, truncated significands.
		"0.3", "-0.1", "1.5", "1e23", "9007199254740993",
		"3.141592653589793238462643383279502884197169399375105820974944",
		"123456789012345678901234567890e-10",
		// Syntax errors: identical error text required.
		"", "+", "-", "1e", "e5", "1.2.3", "0x10", "12#.#", " 1", "1 ",
		// Marks and '@' exponents from the paper's grammar.
		"1#2", "12##e-2", "1@5", "-3@-2",
		// Specials.
		"inf", "-inf", "nan", "Infinity",
	}
	modes := []ReaderRounding{ReaderTowardNegInf, ReaderTowardPosInf}
	for _, mode := range modes {
		fastOpts := &Options{Reader: mode}
		exactOpts := &Options{Reader: mode, Backend: BackendExact}
		for _, s := range inputs {
			fv, ferr := Parse(s, fastOpts)
			ev, eerr := Parse(s, exactOpts)
			if math.Float64bits(fv) != math.Float64bits(ev) {
				t.Errorf("Parse(%q, %v): fast %g (%#x), exact %g (%#x)",
					s, mode, fv, math.Float64bits(fv), ev, math.Float64bits(ev))
			}
			if (ferr == nil) != (eerr == nil) {
				t.Errorf("Parse(%q, %v): fast err %v, exact err %v", s, mode, ferr, eerr)
				continue
			}
			if ferr != nil && ferr.Error() != eerr.Error() {
				t.Errorf("Parse(%q, %v): error text diverged\nfast:  %q\nexact: %q",
					s, mode, ferr.Error(), eerr.Error())
			}
		}
	}
	// The headline case, pinned absolutely rather than differentially: an
	// overflow toward the truncating direction keeps both the saturated
	// value and the range error.
	v, err := Parse("1e309", &Options{Reader: ReaderTowardNegInf})
	if v != math.MaxFloat64 || !errors.Is(err, ErrRange) {
		t.Errorf("Parse(1e309, TowardNegInf) = %g, %v; want MaxFloat64 with ErrRange", v, err)
	}
	v, err = Parse("-1e309", &Options{Reader: ReaderTowardPosInf})
	if v != -math.MaxFloat64 || !errors.Is(err, ErrRange) {
		t.Errorf("Parse(-1e309, TowardPosInf) = %g, %v; want -MaxFloat64 with ErrRange", v, err)
	}
}

// TestDirectedParseStatsAndGuards pins the dispatch gate for the
// directed fast parse: base-10 directed parses attempt it (hit or miss),
// while non-decimal bases, nearest modes, and BackendExact never do.
func TestDirectedParseStatsAndGuards(t *testing.T) {
	ResetStats()
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	before := Snapshot()
	down := &Options{Reader: ReaderTowardNegInf}
	up := &Options{Reader: ReaderTowardPosInf}
	for _, s := range []string{"0.3", "1.5", "-2.25"} { // certifiable
		if _, err := Parse(s, down); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Parse("1e-400", up); err != nil { // declined: below the table
		t.Fatal(err)
	}
	if _, err := Parse("ff.8", &Options{Base: 16, Reader: ReaderTowardNegInf}); err != nil {
		t.Fatal(err) // gate skipped: base
	}
	if _, err := Parse("0.3", &Options{Reader: ReaderTowardNegInf, Backend: BackendExact}); err != nil {
		t.Fatal(err) // gate skipped: forced exact
	}
	if _, err := Parse("0.3", nil); err != nil {
		t.Fatal(err) // nearest traffic lands on the nearest counters
	}
	d := Snapshot().Sub(before)
	if d.DirectedFastHits != 3 {
		t.Errorf("DirectedFastHits = %d, want 3", d.DirectedFastHits)
	}
	if d.DirectedFastMisses != 1 {
		t.Errorf("DirectedFastMisses = %d, want 1", d.DirectedFastMisses)
	}
	// Exact parses: the one decline plus the two gate-skipped parses.
	if d.ParseExact != 3 {
		t.Errorf("ParseExact = %d, want 3", d.ParseExact)
	}
	if d.ParseFastHits != 1 {
		t.Errorf("ParseFastHits = %d, want 1 (the nearest parse)", d.ParseFastHits)
	}
}

// TestParseStatsPathMix checks that the parse counters partition the
// traffic the way the implementation routes it: fast hits for certified
// base-10 parses under any nearest mode, fast misses for declines (which
// then also count as exact parses), and exact-only for traffic the gate
// never offers to the fast path (non-decimal bases).
func TestParseStatsPathMix(t *testing.T) {
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	before := Snapshot()
	for _, s := range []string{"0.3", "1.5", "-2.25"} { // certifiable
		if _, err := Parse(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []string{"12.5##", "1e-400"} { // declined: '#' marks, below the table
		if _, err := Parse(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Parse("ff.8", &Options{Base: 16}); err != nil { // gate skipped
		t.Fatal(err)
	}
	if _, err := Parse("0.3", &Options{Reader: ReaderNearestAway}); err != nil { // certifiable
		t.Fatal(err)
	}
	d := Snapshot().Sub(before)

	if d.ParseFastHits != 4 {
		t.Errorf("ParseFastHits = %d, want 4", d.ParseFastHits)
	}
	if d.ParseFastMisses != 2 {
		t.Errorf("ParseFastMisses = %d, want 2", d.ParseFastMisses)
	}
	// Exact parses: the two declines plus the gate-skipped parse.
	if d.ParseExact != 3 {
		t.Errorf("ParseExact = %d, want 3", d.ParseExact)
	}
}
