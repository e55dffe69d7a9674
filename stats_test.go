package floatprint

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"floatprint/internal/core"
	"floatprint/internal/fpformat"
)

func TestStatsDisabledByDefault(t *testing.T) {
	ResetStats()
	Shortest(0.3)
	if s := Snapshot(); s != (Stats{}) {
		t.Fatalf("counters advanced while disabled: %+v", s)
	}
}

func TestStatsPathMix(t *testing.T) {
	ResetStats()
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	before := Snapshot()
	// 0.3 serves on Ryū under the default reader and under nearest-away;
	// FixedDigits(0.3, 6) certifies on Gay's fast path; a base-16
	// conversion can only take the exact path.
	Shortest(0.3)
	if _, err := Format(0.3, &Options{Reader: ReaderNearestAway}); err != nil {
		t.Fatal(err)
	}
	if _, err := FixedDigits(0.3, 6, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Format(0.3, &Options{Base: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := FixedPositionDigits(123.456, -2, nil); err != nil {
		t.Fatal(err)
	}
	d := Snapshot().Sub(before)
	if d.RyuHits != 2 {
		t.Errorf("RyuHits = %d, want 2", d.RyuHits)
	}
	if d.GayHits != 1 {
		t.Errorf("GayHits = %d, want 1", d.GayHits)
	}
	if d.ExactFree != 1 {
		t.Errorf("ExactFree = %d, want 1 (base-16 format)", d.ExactFree)
	}
	if d.ExactFixed != 1 {
		t.Errorf("ExactFixed = %d, want 1 (fixed position)", d.ExactFixed)
	}

	out := d.String()
	for _, want := range []string{"ryu hit rate", "gay fast-path hits", "exact free-format"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() missing %q:\n%s", want, out)
		}
	}

	// BackendExact pins fixed format to the exact core: Gay's fast path,
	// which would certify 3.14159 at 3 digits, is never tried.
	before = Snapshot()
	if _, err := FixedDigitsTraced(3.14159, 3, &Options{Backend: BackendExact}, new(Trace)); err != nil {
		t.Fatal(err)
	}
	if e := Snapshot().Sub(before); e.ExactFixed != 1 || e.GayHits != 0 || e.GayMisses != 0 {
		t.Errorf("BackendExact fixed call moved ExactFixed by %d, GayHits by %d, GayMisses by %d; want 1, 0, 0",
			e.ExactFixed, e.GayHits, e.GayMisses)
	}
}

func TestStatsFallbackCounting(t *testing.T) {
	ResetStats()
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	// A value whose shortest form is an exact halfway tie (a genuine Ryū
	// decline, found by scanning the corpus) counts one miss and one
	// exact conversion, under any nearest reader and through either entry
	// point: no double-counting from the append path's fallback into the
	// exact core.
	tie := findRyuDecline(t)
	for _, mode := range []ReaderRounding{ReaderNearestEven, ReaderUnknown} {
		for name, convert := range map[string]func(){
			"append": func() { AppendShortestWith(nil, tie, &Options{Reader: mode}) },
			"digits": func() {
				if _, err := ShortestDigits(tie, &Options{Reader: mode}); err != nil {
					t.Fatal(err)
				}
			},
		} {
			ResetStats()
			convert()
			if d := Snapshot(); d.RyuMisses != 1 || d.ExactFree != 1 || d.RyuHits != 0 {
				t.Fatalf("%s, mode %v: ryu fallback for %x counted %+v, want 1 miss + 1 exact",
					name, mode, tie, d)
			}
		}
	}
}

// TestTracedCallsCountLikePlainCalls: one mixed call set, made once
// through the plain API and once through the *Traced twins with a
// record, moves every counter by the same amounts.  Each event is
// counted where it happens — dispatch counts its hit/miss/exact
// decisions, the exact core its estimator and digit-loop events — so
// asking for a record cannot change the telemetry.
func TestTracedCallsCountLikePlainCalls(t *testing.T) {
	tie := findRyuDecline(t)
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	run := func(tr *Trace) Stats {
		t.Helper()
		shortest, fixed, fixedPos, parse := ShortestDigits, FixedDigits, FixedPositionDigits, Parse
		if tr != nil {
			shortest = func(v float64, o *Options) (Digits, error) { return ShortestDigitsTraced(v, o, tr) }
			fixed = func(v float64, n int, o *Options) (Digits, error) { return FixedDigitsTraced(v, n, o, tr) }
			fixedPos = func(v float64, pos int, o *Options) (Digits, error) { return FixedPositionDigitsTraced(v, pos, o, tr) }
			parse = func(s string, o *Options) (float64, error) { return ParseTraced(s, o, tr) }
		}
		before := Snapshot()
		for _, c := range []struct {
			v float64
			o *Options
		}{
			{0.3, nil},                  // Ryū hit
			{tie, nil},                  // Ryū decline, exact core
			{255.5, &Options{Base: 16}}, // no kernel in base 16
			{0.1, &Options{Backend: BackendExact}},
			{0.3, &Options{Reader: ReaderTowardNegInf}}, // one-sided kernels
			{0.3, &Options{Reader: ReaderTowardPosInf}},
			{0.3, &Options{Reader: ReaderTowardNegInf, Backend: BackendExact}},  // floor loop
			{1e23, &Options{Reader: ReaderTowardPosInf, Backend: BackendExact}}, // ceil loop
		} {
			if _, err := shortest(c.v, c.o); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{6, 17} { // Gay certifies 6 digits of 0.3, never 17
			if _, err := fixed(0.3, n, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fixedPos(123.456, -2, nil); err != nil {
			t.Fatal(err)
		}
		for _, in := range []string{"0.3", "5e-324", "-1e999"} { // fast, subnormal, range error
			if _, err := parse(in, nil); err != nil && !errors.Is(err, ErrRange) {
				t.Fatal(err)
			}
		}
		return Snapshot().Sub(before)
	}

	plain := run(nil)
	traced := run(new(Trace))
	if plain != traced {
		t.Errorf("plain calls counted\n%v\ntraced twins counted\n%v", plain, traced)
	}
	if plain.RyuHits == 0 || plain.RyuMisses != 1 || plain.GayHits == 0 || plain.GayMisses == 0 ||
		plain.DirectedRyuHits != 2 || plain.ParseFastHits == 0 || plain.ParseExact != 2 {
		t.Errorf("call set missed a path: %+v", plain)
	}
	if plain.TraceEstimates == 0 || plain.TraceEstimates != plain.ExactFree+plain.ExactFixed {
		t.Errorf("TraceEstimates = %d, want one per exact conversion (%d free + %d fixed)",
			plain.TraceEstimates, plain.ExactFree, plain.ExactFixed)
	}
}

// TestExactCoreCountsEstimatorEvents ties the Trace* counters to the
// per-conversion records: printing N values on the exact path advances
// TraceEstimates by N and each other Trace* counter by what the traced
// core entries (FreeFormatTraced, FixedFormatRelativeTraced,
// FixedFormatTraced) record for the same conversions.
func TestExactCoreCountsEstimatorEvents(t *testing.T) {
	floats, _ := benchCorpus()
	corpus := floats[:5000]
	prev := SetStatsEnabled(false)
	defer SetStatsEnabled(prev)
	exact := &Options{Backend: BackendExact}

	// One exact conversion, made by a traced core entry and by its plain
	// public twin.
	type conversion struct {
		traced func(*Trace) (core.Result, error)
		plain  func() (Digits, error)
	}
	free := func(v float64) conversion {
		val := fpformat.DecodeFloat64(math.Abs(v))
		return conversion{
			func(tr *Trace) (core.Result, error) {
				return core.FreeFormatTraced(val, 10, core.ScalingEstimate, core.ReaderNearestEven, tr)
			},
			func() (Digits, error) { return ShortestDigits(v, exact) },
		}
	}
	relative := func(v float64, n int) conversion {
		val := fpformat.DecodeFloat64(math.Abs(v))
		return conversion{
			func(tr *Trace) (core.Result, error) {
				return core.FixedFormatRelativeTraced(val, 10, core.ReaderNearestEven, n, tr)
			},
			func() (Digits, error) { return FixedDigits(v, n, exact) },
		}
	}
	position := func(v float64, pos int) conversion {
		val := fpformat.DecodeFloat64(math.Abs(v))
		return conversion{
			func(tr *Trace) (core.Result, error) {
				return core.FixedFormatTraced(val, 10, core.ReaderNearestEven, pos, tr)
			},
			func() (Digits, error) { return FixedPositionDigits(v, pos, nil) },
		}
	}

	var tr Trace
	// The fixed entries' own branches: a two-pass relative refinement
	// (9.97 to two digits is "10"), the single-digit k ≤ j branch (5 at
	// the hundreds is 0), and a round-up into a new leading digit (999999
	// at the thousands is 1000 thousands, K 7).
	for _, c := range []struct {
		name   string
		conv   conversion
		digits []byte
		ok     func(Trace) bool
	}{
		{"9.97 n=2", relative(9.97, 2), []byte{1, 0}, func(tr Trace) bool { return tr.Refinements == 2 }},
		{"5 pos=2", position(5, 2), []byte{0}, func(tr Trace) bool { return tr.Iterations == 0 && !tr.RoundedUp }},
		{"999999 pos=3", position(999999, 3), []byte{1, 0, 0, 0}, func(tr Trace) bool { return tr.RoundedUp && tr.K == 7 }},
	} {
		res, err := c.conv.traced(&tr)
		if err != nil || !bytes.Equal(res.Digits, c.digits) || !c.ok(tr) {
			t.Errorf("%s: digits %v, err %v, record %+v; want digits %v", c.name, res.Digits, err, tr, c.digits)
		}
	}

	convs := []conversion{relative(9.97, 2), position(5, 2), position(999999, 3)}
	for _, v := range corpus {
		convs = append(convs, free(v))
	}
	for i, v := range corpus[:1000] {
		lead := int(math.Floor(math.Log10(math.Abs(v))))
		convs = append(convs, relative(v, 1+i%20), position(v, lead+2-i%24))
	}

	var want Stats
	for _, c := range convs {
		if _, err := c.traced(&tr); err != nil {
			t.Fatal(err)
		}
		want.TraceEstimates++
		if tr.FixupSteps > 0 {
			want.TraceFixups++
		}
		want.TraceIterations += uint64(tr.Iterations)
		want.TraceDigits += uint64(tr.NSig)
		if tr.RoundedUp {
			want.TraceRoundUps++
		}
	}
	if want.TraceFixups == 0 || want.TraceRoundUps == 0 {
		t.Fatalf("corpus slice exercises no fixup or round-up: %+v", want)
	}

	SetStatsEnabled(true)
	before := Snapshot()
	for _, c := range convs {
		if _, err := c.plain(); err != nil {
			t.Fatal(err)
		}
	}
	d := Snapshot().Sub(before)
	got := Stats{
		TraceEstimates: d.TraceEstimates, TraceFixups: d.TraceFixups,
		TraceIterations: d.TraceIterations, TraceDigits: d.TraceDigits, TraceRoundUps: d.TraceRoundUps,
	}
	if got != want {
		t.Errorf("counters moved by %+v, records sum to %+v", got, want)
	}
}

// TestTelemetryAddsNoAllocs: every counter is an atomic add on a fixed
// address, so turning collection on changes no entry point's allocation
// count, on the fast paths or the exact ones.  Under -race, whose
// sync.Pool drops a quarter of its puts at random, the pooled exact
// paths allocate a varying amount per call, so there the test compares
// each side's mean over raceAllocRuns calls and requires them to be
// within one allocation.
func TestTelemetryAddsNoAllocs(t *testing.T) {
	prev := SetStatsEnabled(false)
	defer SetStatsEnabled(prev)
	exact := &Options{Backend: BackendExact}
	// Kernel hits and specials only: the batch loop's own tally and fold
	// must allocate nothing.
	batch := []float64{0.3, 1e23, math.Copysign(0, -1), math.NaN(), math.Inf(-1)}
	var batchBuf []byte
	batchEnds := make([]int, len(batch))
	for _, c := range []struct {
		name string
		call func()
	}{
		{"ShortestDigits", func() { _, _ = ShortestDigits(0.3, nil) }},
		{"ShortestDigits exact", func() { _, _ = ShortestDigits(0.3, exact) }},
		{"FixedDigits", func() { _, _ = FixedDigits(0.3, 6, nil) }},
		{"FixedDigits exact", func() { _, _ = FixedDigits(0.3, 17, nil) }},
		{"FixedPositionDigits", func() { _, _ = FixedPositionDigits(123.456, -2, nil) }},
		{"Format", func() { _, _ = Format(0.3, nil) }},
		{"Parse", func() { _, _ = Parse("0.3", nil) }},
		{"Parse exact", func() { _, _ = Parse("5e-324", nil) }},
		{"AppendShortestBatch", func() { batchBuf = AppendShortestBatch(batchBuf[:0], batch, []byte{'\n'}, batchEnds) }},
	} {
		if raceEnabled {
			SetStatsEnabled(false)
			off := meanAllocs(raceAllocRuns, c.call)
			SetStatsEnabled(true)
			on := meanAllocs(raceAllocRuns, c.call)
			if math.Abs(on-off) >= 1 {
				t.Errorf("%s: %.2f allocs per call with telemetry on, %.2f with it off", c.name, on, off)
			}
			continue
		}
		SetStatsEnabled(false)
		off := testing.AllocsPerRun(200, c.call)
		SetStatsEnabled(true)
		on := testing.AllocsPerRun(200, c.call)
		if on != off {
			t.Errorf("%s: %.0f allocs with telemetry on, %.0f with it off", c.name, on, off)
		}
	}
}

// raceAllocRuns is how many calls meanAllocs averages under -race: the
// pool's random drops add a few allocations to about one call in four,
// and over this many calls the mean settles well within one allocation.
const raceAllocRuns = 3000

// meanAllocs is testing.AllocsPerRun without the rounding down: the mean
// number of allocations per call of f over runs calls, after one warm-up
// call, with GOMAXPROCS at 1 as AllocsPerRun sets it.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestStatsWritePrometheus pins the exposition format byte for byte:
// the /metrics endpoint of the serving layer and any scraping config
// built against it depend on these exact metric names and line shapes.
func TestStatsWritePrometheus(t *testing.T) {
	s := Stats{
		RyuHits: 900, RyuMisses: 3,
		GayHits: 80, GayMisses: 20,
		ExactFree: 25, ExactFixed: 30,
		BatchValues: 1000, BatchBytes: 17500,
		ParseFastHits: 970, ParseFastMisses: 30, ParseExact: 45,
		BatchParseBlocks: 12, BatchParseValues: 5000,
		BatchParseBytes: 90000, BatchParseFallbacks: 7,
		DirectedRyuHits: 40, DirectedRyuMisses: 2,
		DirectedFastHits: 36, DirectedFastMisses: 4,
		IntervalPrints: 21, IntervalParses: 19,
		TraceEstimates: 55, TraceFixups: 17,
		TraceIterations: 16000, TraceDigits: 15800, TraceRoundUps: 500,
	}
	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP floatprint_ryu_hits_total Shortest conversions served by the Ryu fast path.
# TYPE floatprint_ryu_hits_total counter
floatprint_ryu_hits_total 900
# HELP floatprint_ryu_misses_total Shortest conversions where Ryu declined (exact-halfway ties).
# TYPE floatprint_ryu_misses_total counter
floatprint_ryu_misses_total 3
# HELP floatprint_gay_hits_total Fixed conversions certified by Gay's fast path.
# TYPE floatprint_gay_hits_total counter
floatprint_gay_hits_total 80
# HELP floatprint_gay_misses_total Fixed conversions where Gay's fast path declined.
# TYPE floatprint_gay_misses_total counter
floatprint_gay_misses_total 20
# HELP floatprint_exact_free_total Exact free-format (shortest) conversions.
# TYPE floatprint_exact_free_total counter
floatprint_exact_free_total 25
# HELP floatprint_exact_fixed_total Exact fixed-format conversions.
# TYPE floatprint_exact_fixed_total counter
floatprint_exact_fixed_total 30
# HELP floatprint_batch_values_total Values converted by the batch engine.
# TYPE floatprint_batch_values_total counter
floatprint_batch_values_total 1000
# HELP floatprint_batch_bytes_total Bytes produced by the batch engine.
# TYPE floatprint_batch_bytes_total counter
floatprint_batch_bytes_total 17500
# HELP floatprint_parse_fast_hits_total Parses certified by the Eisel-Lemire fast path.
# TYPE floatprint_parse_fast_hits_total counter
floatprint_parse_fast_hits_total 970
# HELP floatprint_parse_fast_misses_total Parses where the fast path declined to the exact reader.
# TYPE floatprint_parse_fast_misses_total counter
floatprint_parse_fast_misses_total 30
# HELP floatprint_parse_exact_total Parses decided by the exact big-integer reader.
# TYPE floatprint_parse_exact_total counter
floatprint_parse_exact_total 45
# HELP floatprint_batch_parse_blocks_total Contiguous byte ranges scanned by the batch parse engine.
# TYPE floatprint_batch_parse_blocks_total counter
floatprint_batch_parse_blocks_total 12
# HELP floatprint_batch_parse_values_total Values parsed by the batch parse engine.
# TYPE floatprint_batch_parse_values_total counter
floatprint_batch_parse_values_total 5000
# HELP floatprint_batch_parse_bytes_total Input bytes consumed by the batch parse engine.
# TYPE floatprint_batch_parse_bytes_total counter
floatprint_batch_parse_bytes_total 90000
# HELP floatprint_batch_parse_fallbacks_total Batch-parse tokens declined to the per-value parser.
# TYPE floatprint_batch_parse_fallbacks_total counter
floatprint_batch_parse_fallbacks_total 7
# HELP floatprint_directed_ryu_hits_total Directed shortest conversions served by the one-sided Ryu kernels.
# TYPE floatprint_directed_ryu_hits_total counter
floatprint_directed_ryu_hits_total 40
# HELP floatprint_directed_ryu_misses_total Directed shortest conversions where a one-sided kernel declined.
# TYPE floatprint_directed_ryu_misses_total counter
floatprint_directed_ryu_misses_total 2
# HELP floatprint_directed_fast_hits_total Directed parses certified by the directed Eisel-Lemire fast path.
# TYPE floatprint_directed_fast_hits_total counter
floatprint_directed_fast_hits_total 36
# HELP floatprint_directed_fast_misses_total Directed parses where the fast path declined to the exact reader.
# TYPE floatprint_directed_fast_misses_total counter
floatprint_directed_fast_misses_total 4
# HELP floatprint_interval_prints_total Intervals formatted by the interval package.
# TYPE floatprint_interval_prints_total counter
floatprint_interval_prints_total 21
# HELP floatprint_interval_parses_total Intervals read by the interval package.
# TYPE floatprint_interval_parses_total counter
floatprint_interval_parses_total 19
# HELP floatprint_trace_estimates_total Exact conversions that ran the scale estimator.
# TYPE floatprint_trace_estimates_total counter
floatprint_trace_estimates_total 55
# HELP floatprint_trace_fixups_total Scale estimates one low, corrected by the fixup loop.
# TYPE floatprint_trace_fixups_total counter
floatprint_trace_fixups_total 17
# HELP floatprint_trace_iterations_total Summed digit-generation loop iterations.
# TYPE floatprint_trace_iterations_total counter
floatprint_trace_iterations_total 16000
# HELP floatprint_trace_digits_total Summed significant output digits.
# TYPE floatprint_trace_digits_total counter
floatprint_trace_digits_total 15800
# HELP floatprint_trace_roundups_total Conversions whose last digit rounded up.
# TYPE floatprint_trace_roundups_total counter
floatprint_trace_roundups_total 500
`
	if sb.String() != want {
		t.Fatalf("WritePrometheus output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestStatsStringGolden pins Stats.String byte for byte: fpbench -stats
// prints it and EXPERIMENTS.md records its output.  The cases cover every
// field set, the trace fields zero (the trace section disappears), and
// counts whose ratio denominators are zero (no rate lines, and no trace
// section while TraceEstimates, its gate and denominator, is zero).
func TestStatsStringGolden(t *testing.T) {
	full := Stats{
		GrisuHits: 11, GrisuMisses: 13,
		RyuHits: 270637, RyuMisses: 43,
		GayHits: 80, GayMisses: 20,
		ExactFree: 25, ExactFixed: 30,
		BatchValues: 1000, BatchBytes: 17500,
		ParseFastHits: 970, ParseFastMisses: 30, ParseExact: 45,
		BatchParseBlocks: 12, BatchParseValues: 5000,
		BatchParseBytes: 90000, BatchParseFallbacks: 7,
		DirectedRyuHits: 40, DirectedRyuMisses: 2,
		DirectedFastHits: 36, DirectedFastMisses: 4,
		IntervalPrints: 21, IntervalParses: 19,
		TraceEstimates: 55, TraceFixups: 17,
		TraceIterations: 16000, TraceDigits: 15800, TraceRoundUps: 500,
	}
	untraced := full
	untraced.TraceEstimates, untraced.TraceFixups = 0, 0
	untraced.TraceIterations, untraced.TraceDigits, untraced.TraceRoundUps = 0, 0, 0

	const conversionLines = `  ryu hits                     270637
  ryu misses                       43
  ryu hit rate                 99.98%
  gay fast-path hits               80
  gay fast-path misses             20
  gay fast-path hit rate       80.00%
  exact free-format                25
  exact fixed-format               30
  batch values                   1000
  batch bytes                   17500
  parse fast-path hits            970
  parse fast-path misses           30
  parse fast-path hit rate       97.00%
  exact parses                     45
  batch-parse blocks               12
  batch-parse values             5000
  batch-parse bytes             90000
  batch-parse fallbacks             7
  batch-parse fb rate         0.1400%
  directed ryu hits                40
  directed ryu misses               2
  directed ryu hit rate        95.24%
  directed parse hits              36
  directed parse misses             4
  directed parse hit rate       90.00%
  interval prints                  21
  interval parses                  19
`
	for _, tc := range []struct {
		name string
		s    Stats
		want string
	}{
		{"every field", full, conversionLines + `  scale estimates                  55
  scale fixups                     17
  fixup rate                   30.91%
  mean loop iterations         290.91
  mean output digits           287.27
  round-ups                       500
`},
		{"trace fields zero", untraced, conversionLines},
		{"zero denominators", Stats{TraceIterations: 10, TraceDigits: 9, TraceRoundUps: 1},
			`  ryu hits                          0
  ryu misses                        0
  gay fast-path hits                0
  gay fast-path misses              0
  exact free-format                 0
  exact fixed-format                0
  batch values                      0
  batch bytes                       0
  parse fast-path hits              0
  parse fast-path misses            0
  exact parses                      0
  batch-parse blocks                0
  batch-parse values                0
  batch-parse bytes                 0
  batch-parse fallbacks             0
  directed ryu hits                 0
  directed ryu misses               0
  directed parse hits               0
  directed parse misses             0
  interval prints                   0
  interval parses                   0
`},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%s: String() =\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// TestStatsTableComplete: every uint64 field of Stats except the two
// deprecated Grisu fields has exactly one statsTable row, and every row
// carries a distinct floatprint_<name>_total family with help text.
func TestStatsTableComplete(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	rows := map[string]int{}
	families := map[string]bool{}
	for c, r := range statsTable {
		if r.field == nil || r.help == "" ||
			!strings.HasPrefix(r.name, "floatprint_") || !strings.HasSuffix(r.name, "_total") {
			t.Fatalf("row %d is incomplete: %+v", c, r)
		}
		if families[r.name] {
			t.Errorf("family %s declared twice", r.name)
		}
		families[r.name] = true
		p := r.field(&s)
		for i := 0; i < v.NumField(); i++ {
			if f, ok := v.Field(i).Addr().Interface().(*uint64); ok && f == p {
				rows[v.Type().Field(i).Name]++
			}
		}
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("Stats.%s is %s, want uint64", f.Name, f.Type)
			continue
		}
		want := 1
		if f.Name == "GrisuHits" || f.Name == "GrisuMisses" {
			want = 0
		}
		if rows[f.Name] != want {
			t.Errorf("Stats.%s has %d table rows, want %d", f.Name, rows[f.Name], want)
		}
	}
}

// BenchmarkAppendShortestStatsEnabled quantifies the telemetry tax:
// compare with BenchmarkAppendShortest to see the cost of one atomic
// increment per conversion when collection is on (it is off by
// default, where the hook is only a branch on an atomic bool).
func BenchmarkAppendShortestStatsEnabled(b *testing.B) {
	floats, _ := benchCorpus()
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendShortest(buf[:0], floats[i%len(floats)])
	}
}
