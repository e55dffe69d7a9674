package floatprint

import (
	"fmt"
	"io"
	"strings"

	"floatprint/internal/stats"
)

// Stats is a snapshot of the package's conversion-path telemetry: how
// many conversions each algorithm actually decided.  The paper's
// evaluation is a throughput table; the path mix is what makes such a
// number interpretable (a run whose shortest conversions are all Ryū
// hits measures 128-bit integer arithmetic, one forced onto the exact
// backend measures the big-integer algorithm).
//
// Hits and hit/miss pairs count conversions where the fast path ran
// (base 10, BackendAuto): the Ryū kernels decide every such shortest
// conversion, so they have no misses.  ExactFree and ExactFixed count
// every run of the exact algorithm, including conversions where no fast
// path applied at all (other bases, absolute positions, BackendExact).
// BatchValues and BatchBytes total the batch engine's output.
//
// Each counter is advanced once, by the code where its event happens:
// the dispatch layer counts its own hit/miss/exact decisions and the
// exact print core counts its estimator and digit-loop events (the
// Trace* fields).  So every entry point — plain or *Traced, single or
// batch, library or served — moves the same counters by the same
// amounts.
type Stats struct {
	// Deprecated: always zero.  Grisu3 no longer serves any conversion;
	// the Ryū kernel covers every reader mode (RyuHits).
	GrisuHits uint64
	// Deprecated: always zero, like GrisuHits.
	GrisuMisses uint64

	RyuHits uint64 // nearest-mode shortest conversions served by Ryū
	// Deprecated: always zero.  The nearest kernel rounds a final-digit
	// tie up, as the exact core does, so it decides every value.
	RyuMisses   uint64
	GayHits     uint64 // fixed conversions certified by Gay's fast path
	GayMisses   uint64 // Gay fast path attempted, declined
	ExactFree   uint64 // exact free-format (shortest) conversions
	ExactFixed  uint64 // exact fixed-format conversions
	BatchValues uint64 // values converted by the batch engine
	BatchBytes  uint64 // bytes produced by the batch engine

	// Read-side counters (Parse/Parse32).  ParseFastHits and
	// ParseFastMisses count parses under the nearest modes, in either
	// width, where the Eisel–Lemire fast path was attempted (base 10,
	// BackendAuto); ParseExact counts every run of the exact big-integer
	// reader, including parses where no fast path applied (other bases,
	// BackendExact) and parses that ended in ErrRange.
	ParseFastHits   uint64 // nearest-mode parses certified by the fast path
	ParseFastMisses uint64 // fast path attempted, declined to the reader
	ParseExact      uint64 // parses decided by the exact reader

	// Batch-parse counters (ParseBatch / batch.Pool.ParseAll).  Blocks
	// counts contiguous byte ranges scanned; Fallbacks counts tokens the
	// chunked block scanner declined and routed to the specials and the
	// exact reader (the ones that reach the reader also advance
	// ParseExact; the scanner's own declines move no ParseFast* counter,
	// since the per-value fast path would decline them again).
	BatchParseBlocks    uint64 // contiguous byte ranges scanned
	BatchParseValues    uint64 // values parsed by the batch engine
	BatchParseBytes     uint64 // input bytes consumed by the batch engine
	BatchParseFallbacks uint64 // tokens declined to the per-value parser

	// Directed-rounding fast paths (floor/ceil printing and parsing, the
	// interval package's workhorses).  DirectedRyuHits counts one-sided
	// shortest conversions, in either width, served by a directed Ryū
	// kernel; DirectedFast* count parses under the directed modes, in
	// either width, where the Eisel–Lemire fast path was attempted.
	// Parse misses fall back to the exact reader and also advance
	// ParseExact.
	DirectedRyuHits uint64 // directed prints served by one-sided Ryū
	// Deprecated: always zero, like RyuMisses: the one-sided kernels
	// decide every value.
	DirectedRyuMisses  uint64
	DirectedFastHits   uint64 // directed-mode parses certified by the fast path
	DirectedFastMisses uint64 // directed fast parse attempted, declined

	// Interval counters (the interval package).  Each counts whole
	// [lo,hi] operations; the per-endpoint directed conversions behind
	// them also advance the directed fast-path counters above (hits) or
	// ExactFree / ParseExact (parse misses and forced-exact runs).
	IntervalPrints uint64 // intervals formatted by interval.AppendShortest
	IntervalParses uint64 // intervals read by interval.Parse

	// Exact print core events, counted by the core once per exact print
	// conversion (the quantities a Trace record carries for one
	// conversion, summed).  Every exact print conversion runs the §3.2
	// scale estimator, so for this package's conversions TraceEstimates
	// equals ExactFree + ExactFixed, and the fixup rate
	// TraceFixups/TraceEstimates is the fraction of exact conversions
	// whose estimate came in one low and took the penalty-free fixup.
	// Dividing TraceIterations or TraceDigits by TraceEstimates gives the
	// mean digit-loop length or significant output digits of an exact
	// conversion.  The Ryū, Gay and Eisel–Lemire fast paths run no
	// estimator and count nothing here.
	TraceEstimates  uint64 // exact conversions that ran the §3.2 estimator
	TraceFixups     uint64 // estimator low by one: scale fixup fired
	TraceIterations uint64 // summed digit-generation loop iterations
	TraceDigits     uint64 // summed significant output digits
	TraceRoundUps   uint64 // conversions whose last digit rounded up
}

// statRow declares one counter of Stats.  statsTable is indexed by the
// internal/stats counter that is the row's source, and every derived
// form walks it in order: Snapshot and Sub through field,
// WritePrometheus as the counter family name with help, and String as a
// line labeled label (none when label is empty) followed by the row's
// ratio line, if any.
type statRow struct {
	field      func(*Stats) *uint64
	name, help string
	label      string
	ratio      ratio
	section    bool // String omits this row and all later ones when this count is zero
}

// ratio is a String line derived from a row's count v and the count p
// of the per counter: v/p, or for the misses half of a hit/miss pair
// (hitRate, per naming the hits) p/(p+v).  It is printed with verb after
// multiplying by scale, and only when the denominator is nonzero.
type ratio struct {
	label   string
	per     stats.Counter
	hitRate bool
	verb    string
	scale   float64
}

func hitRate(label string, hits stats.Counter) ratio {
	return ratio{label, hits, true, "%11.2f%%", 100}
}

func percentOf(label string, per stats.Counter, verb string) ratio {
	return ratio{label, per, false, verb, 100}
}

func meanPer(label string, per stats.Counter) ratio {
	return ratio{label, per, false, "%12.2f", 1}
}

var statsTable = [stats.NumCounters]statRow{
	stats.RyuHits: {field: func(s *Stats) *uint64 { return &s.RyuHits },
		name: "floatprint_ryu_hits_total", help: "Shortest conversions served by the Ryu fast path.",
		label: "ryu hits"},
	stats.GayHits: {field: func(s *Stats) *uint64 { return &s.GayHits },
		name: "floatprint_gay_hits_total", help: "Fixed conversions certified by Gay's fast path.",
		label: "gay fast-path hits"},
	stats.GayMisses: {field: func(s *Stats) *uint64 { return &s.GayMisses },
		name: "floatprint_gay_misses_total", help: "Fixed conversions where Gay's fast path declined.",
		label: "gay fast-path misses", ratio: hitRate("gay fast-path hit rate", stats.GayHits)},
	stats.ExactFree: {field: func(s *Stats) *uint64 { return &s.ExactFree },
		name: "floatprint_exact_free_total", help: "Exact free-format (shortest) conversions.",
		label: "exact free-format"},
	stats.ExactFixed: {field: func(s *Stats) *uint64 { return &s.ExactFixed },
		name: "floatprint_exact_fixed_total", help: "Exact fixed-format conversions.",
		label: "exact fixed-format"},
	stats.BatchValues: {field: func(s *Stats) *uint64 { return &s.BatchValues },
		name: "floatprint_batch_values_total", help: "Values converted by the batch engine.",
		label: "batch values"},
	stats.BatchBytes: {field: func(s *Stats) *uint64 { return &s.BatchBytes },
		name: "floatprint_batch_bytes_total", help: "Bytes produced by the batch engine.",
		label: "batch bytes"},
	stats.ParseFastHits: {field: func(s *Stats) *uint64 { return &s.ParseFastHits },
		name: "floatprint_parse_fast_hits_total", help: "Parses certified by the Eisel-Lemire fast path.",
		label: "parse fast-path hits"},
	stats.ParseFastMisses: {field: func(s *Stats) *uint64 { return &s.ParseFastMisses },
		name: "floatprint_parse_fast_misses_total", help: "Parses where the fast path declined to the exact reader.",
		label: "parse fast-path misses", ratio: hitRate("parse fast-path hit rate", stats.ParseFastHits)},
	stats.ParseExact: {field: func(s *Stats) *uint64 { return &s.ParseExact },
		name: "floatprint_parse_exact_total", help: "Parses decided by the exact big-integer reader.",
		label: "exact parses"},
	stats.BatchParseBlocks: {field: func(s *Stats) *uint64 { return &s.BatchParseBlocks },
		name: "floatprint_batch_parse_blocks_total", help: "Contiguous byte ranges scanned by the batch parse engine.",
		label: "batch-parse blocks"},
	stats.BatchParseValues: {field: func(s *Stats) *uint64 { return &s.BatchParseValues },
		name: "floatprint_batch_parse_values_total", help: "Values parsed by the batch parse engine.",
		label: "batch-parse values"},
	stats.BatchParseBytes: {field: func(s *Stats) *uint64 { return &s.BatchParseBytes },
		name: "floatprint_batch_parse_bytes_total", help: "Input bytes consumed by the batch parse engine.",
		label: "batch-parse bytes"},
	stats.BatchParseFallbacks: {field: func(s *Stats) *uint64 { return &s.BatchParseFallbacks },
		name: "floatprint_batch_parse_fallbacks_total", help: "Batch-parse tokens declined to the per-value parser.",
		label: "batch-parse fallbacks", ratio: percentOf("batch-parse fb rate", stats.BatchParseValues, "%11.4f%%")},
	stats.DirectedRyuHits: {field: func(s *Stats) *uint64 { return &s.DirectedRyuHits },
		name: "floatprint_directed_ryu_hits_total", help: "Directed shortest conversions served by the one-sided Ryu kernels.",
		label: "directed ryu hits"},
	stats.DirectedFastHits: {field: func(s *Stats) *uint64 { return &s.DirectedFastHits },
		name: "floatprint_directed_fast_hits_total", help: "Directed parses certified by the directed Eisel-Lemire fast path.",
		label: "directed parse hits"},
	stats.DirectedFastMisses: {field: func(s *Stats) *uint64 { return &s.DirectedFastMisses },
		name: "floatprint_directed_fast_misses_total", help: "Directed parses where the fast path declined to the exact reader.",
		label: "directed parse misses", ratio: hitRate("directed parse hit rate", stats.DirectedFastHits)},
	stats.IntervalPrints: {field: func(s *Stats) *uint64 { return &s.IntervalPrints },
		name: "floatprint_interval_prints_total", help: "Intervals formatted by the interval package.",
		label: "interval prints"},
	stats.IntervalParses: {field: func(s *Stats) *uint64 { return &s.IntervalParses },
		name: "floatprint_interval_parses_total", help: "Intervals read by the interval package.",
		label: "interval parses"},
	stats.TraceEstimates: {field: func(s *Stats) *uint64 { return &s.TraceEstimates },
		name: "floatprint_trace_estimates_total", help: "Exact conversions that ran the scale estimator.",
		label: "scale estimates", section: true},
	stats.TraceFixups: {field: func(s *Stats) *uint64 { return &s.TraceFixups },
		name: "floatprint_trace_fixups_total", help: "Scale estimates one low, corrected by the fixup loop.",
		label: "scale fixups", ratio: percentOf("fixup rate", stats.TraceEstimates, "%11.2f%%")},
	stats.TraceIterations: {field: func(s *Stats) *uint64 { return &s.TraceIterations },
		name: "floatprint_trace_iterations_total", help: "Summed digit-generation loop iterations.",
		ratio: meanPer("mean loop iterations", stats.TraceEstimates)},
	stats.TraceDigits: {field: func(s *Stats) *uint64 { return &s.TraceDigits },
		name: "floatprint_trace_digits_total", help: "Summed significant output digits.",
		ratio: meanPer("mean output digits", stats.TraceEstimates)},
	stats.TraceRoundUps: {field: func(s *Stats) *uint64 { return &s.TraceRoundUps },
		name: "floatprint_trace_roundups_total", help: "Conversions whose last digit rounded up.",
		label: "round-ups"},
}

// Snapshot returns the current telemetry counters.  Counters only
// advance while collection is enabled (SetStatsEnabled); a snapshot
// taken during concurrent conversions is per-field atomic.
func Snapshot() Stats {
	snap := stats.Read()
	var s Stats
	for c, r := range statsTable {
		*r.field(&s) = snap[c]
	}
	return s
}

// SetStatsEnabled turns telemetry collection on or off, returning the
// previous setting.  Collection is off by default: when disabled every
// instrumentation point is a single branch on an atomic bool, so the
// hot path pays nothing.  When enabled, each counted event is one atomic
// add on its counter's own cache line: one for a fast-path conversion,
// a handful for an exact one.  Concurrent conversions that count the
// same event share that line; the batch print and parse engines sum
// their per-value counts in locals and add each sum once per chunk or
// call, so batch shards do not contend on it per value.
func SetStatsEnabled(on bool) bool { return stats.Enable(on) }

// ResetStats zeroes all telemetry counters.
func ResetStats() { stats.Reset() }

// Sub returns the per-field difference s − prev: the path mix of the
// work done between two Snapshot calls.
func (s Stats) Sub(prev Stats) Stats {
	var d Stats
	for _, r := range statsTable {
		*r.field(&d) = *r.field(&s) - *r.field(&prev)
	}
	return d
}

// String renders the path mix as a small report, one counter per line,
// with fast-path hit rates where a ratio is meaningful.
func (s Stats) String() string {
	var sb strings.Builder
	for _, r := range statsTable {
		v := *r.field(&s)
		if r.section && v == 0 {
			break
		}
		if r.label != "" {
			fmt.Fprintf(&sb, "  %-22s %12d\n", r.label, v)
		}
		if q := r.ratio; q.label != "" {
			num, den := v, *statsTable[q.per].field(&s)
			if q.hitRate {
				num, den = den, den+num
			}
			if den > 0 {
				fmt.Fprintf(&sb, "  %-22s "+q.verb+"\n", q.label, q.scale*float64(num)/float64(den))
			}
		}
	}
	return sb.String()
}

// WritePrometheus writes the snapshot in Prometheus text exposition
// format (one `floatprint_*_total` counter per field, with HELP and
// TYPE lines).  It is the library half of the serving layer's /metrics
// endpoint — fpserved appends its server counters to the same scrape —
// but works against any io.Writer, so an application embedding this
// package can bolt the conversion path mix onto its own metrics
// handler with one call.
func (s Stats) WritePrometheus(w io.Writer) error {
	for _, r := range statsTable {
		if err := stats.WriteCounter(w, r.name, r.help, *r.field(&s)); err != nil {
			return err
		}
	}
	return nil
}
