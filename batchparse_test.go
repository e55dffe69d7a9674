package floatprint

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// parseBatchRef is the per-value oracle: tokenize with BatchSep, parse
// each token with the exact reader (BackendExact, so the oracle shares
// no kernel with the engine's Eisel–Lemire fast path; values and error
// text are identical by contract) accepting ErrRange, and stop at the
// first real error with the same Record/Offset bookkeeping ParseBatch
// promises.
func parseBatchRef(data []byte) ([]float64, error) {
	exact := &Options{Backend: BackendExact}
	var out []float64
	i := 0
	for {
		for i < len(data) && BatchSep(data[i]) {
			i++
		}
		if i >= len(data) {
			return out, nil
		}
		start := i
		for i < len(data) && !BatchSep(data[i]) {
			i++
		}
		f, err := Parse(string(data[start:i]), exact)
		if err != nil && !errors.Is(err, ErrRange) {
			return out, &BatchParseError{Record: len(out), Offset: start, Err: err}
		}
		out = append(out, f)
	}
}

// assertBatchMatchesRef runs both engines and requires bit-identical
// values and identical error position and text.
func assertBatchMatchesRef(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := ParseBatch(data)
	want, wantErr := parseBatchRef(data)
	if len(got) != len(want) {
		t.Fatalf("ParseBatch(%q): %d values, reference %d", data, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("ParseBatch(%q): value %d = %x, reference %x",
				data, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	switch {
	case gotErr == nil && wantErr == nil:
	case gotErr == nil || wantErr == nil:
		t.Fatalf("ParseBatch(%q): err %v, reference err %v", data, gotErr, wantErr)
	default:
		var ge, we *BatchParseError
		if !errors.As(gotErr, &ge) || !errors.As(wantErr, &we) {
			t.Fatalf("ParseBatch(%q): non-BatchParseError: %v / %v", data, gotErr, wantErr)
		}
		if ge.Record != we.Record || ge.Offset != we.Offset || ge.Err.Error() != we.Err.Error() {
			t.Fatalf("ParseBatch(%q): error %v, reference %v", data, gotErr, wantErr)
		}
	}
}

func TestParseBatchBasic(t *testing.T) {
	got, err := ParseBatch([]byte("1.5\n-2.25\n1e23\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, -2.25, 1e23}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestParseBatchMalformedPins pins the issue's malformed-input corpus:
// truncated final line, embedded NUL, overlong digit runs, CRLF vs LF
// equivalence, plus specials and range semantics, all against the
// per-value reference.
func TestParseBatchMalformedPins(t *testing.T) {
	long := strings.Repeat("9", 400)
	cases := []string{
		"",
		"\n\n\n",
		",, ,\t,",
		"1.5\n2.5",                // truncated final line (no trailing separator)
		"1.5\n2.5\n",              // same with the separator, same values
		"1\x002\n3\n",             // embedded NUL: token "1\x002" is malformed
		"\x00",                    // NUL-only token
		long + "\n1\n",            // overlong digit run (falls back, huge but finite? no: 1e400-ish -> ErrRange)
		"0." + long + "\n",        // overlong fraction, certifiable by man+1 agreement or fallback
		"1e999\n-1e999\n2\n",      // ErrRange keeps IEEE semantics: +/-Inf, parsing continues
		"1e-999\n",                // underflow to zero, exact reader decides
		"2.01e16777215\n3\n",      // astronomical exponent: O(1) ErrRange, not minutes of bignat powering
		"-1e-16777215\n3\n",       // astronomical underflow: O(1) -0
		"1.5\r\n2.5\r\n",          // CRLF
		"1.5\n2.5\n",              // LF twin of the CRLF case
		"1,2\r\n3 4\t5\n",         // mixed separators
		"nan\nInf\n-infinity\n",   // specials take the per-value fallback
		"1##\n12#.#e3\n",          // '#' marks (fixed-format round-trips)
		"12@-3\n",                 // '@' exponent
		"3..4\n5\n",               // malformed mid-stream: error after one value
		"abc\n",                   // malformed first token
		"1.5\nxyz\n2.5\n",         // values before the failure are returned
		"+\n",                     // sign-only token
		"1e\n",                    // missing exponent digits
		"0.3\n1e23\n5e-324\n-0\n", // fast path, tie fallback, subnormal, negative zero
	}
	for _, c := range cases {
		assertBatchMatchesRef(t, []byte(c))
	}
}

func TestParseBatchCRLFvsLF(t *testing.T) {
	crlf, err1 := ParseBatch([]byte("1.25\r\n-7e5\r\n0.001\r\n"))
	lf, err2 := ParseBatch([]byte("1.25\n-7e5\n0.001\n"))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(crlf) != len(lf) || len(crlf) != 3 {
		t.Fatalf("CRLF %d values, LF %d", len(crlf), len(lf))
	}
	for i := range crlf {
		if math.Float64bits(crlf[i]) != math.Float64bits(lf[i]) {
			t.Fatalf("value %d differs: CRLF %v, LF %v", i, crlf[i], lf[i])
		}
	}
}

func TestParseBatchErrorPosition(t *testing.T) {
	_, err := ParseBatch([]byte("1.5 2.5\nbogus\n3.5\n"))
	var be *BatchParseError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BatchParseError", err)
	}
	if be.Record != 2 || be.Offset != 8 {
		t.Fatalf("error at record %d offset %d, want record 2 offset 8", be.Record, be.Offset)
	}
	if !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), "offset 8") {
		t.Fatalf("error text %q missing position", err)
	}
}

func TestParseBatchStats(t *testing.T) {
	ResetStats()
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	before := Snapshot()
	data := []byte("0.3\n1.5\nnan\n1e999\n")
	vals, err := ParseBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("got %d values, want 4", len(vals))
	}
	d := Snapshot().Sub(before)
	if d.BatchParseBlocks != 1 {
		t.Errorf("BatchParseBlocks = %d, want 1", d.BatchParseBlocks)
	}
	if d.BatchParseValues != 4 {
		t.Errorf("BatchParseValues = %d, want 4", d.BatchParseValues)
	}
	if d.BatchParseBytes != uint64(len(data)) {
		t.Errorf("BatchParseBytes = %d, want %d", d.BatchParseBytes, len(data))
	}
	// "nan" and "1e999" both decline the block scanner.
	if d.BatchParseFallbacks != 2 {
		t.Errorf("BatchParseFallbacks = %d, want 2", d.BatchParseFallbacks)
	}
	out := d.String()
	for _, want := range []string{"batch-parse blocks", "batch-parse fallbacks"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() missing %q:\n%s", want, out)
		}
	}
}

// TestParseBatchFallbackGoesExact pins the fallback route: a token the
// block scanner declines goes straight to the exact reader, without a
// second run of the same scanner and kernel, so it counts one exact
// parse and no fast-path miss.
func TestParseBatchFallbackGoesExact(t *testing.T) {
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	before := Snapshot()
	vals, err := ParseBatch([]byte("5e-324\n0.3\n"))
	if err != nil || len(vals) != 2 || vals[0] != 5e-324 || vals[1] != 0.3 {
		t.Fatalf("ParseBatch = %v, %v; want [5e-324 0.3]", vals, err)
	}
	d := Snapshot().Sub(before)
	if d.BatchParseFallbacks != 1 || d.ParseExact != 1 || d.ParseFastMisses != 0 {
		t.Errorf("fallbacks %d, exact parses %d, fast-path misses %d; want 1, 1, 0",
			d.BatchParseFallbacks, d.ParseExact, d.ParseFastMisses)
	}
}
