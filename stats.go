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
// number interpretable (a corpus where the Ryū kernel serves ~99.98% of
// shortest conversions measures 128-bit integer arithmetic, one where it
// declines measures the exact big-integer algorithm).
//
// Hit/miss pairs count conversions where the fast path was attempted
// (base 10, default scaling, BackendAuto); ExactFree and ExactFixed count
// every run of the exact algorithm, including conversions where no fast
// path applied at all (other bases, benchmark scalings, absolute
// positions).  BatchValues and BatchBytes total the batch engine's
// output.
type Stats struct {
	// Deprecated: always zero.  Grisu3 no longer serves any conversion;
	// the Ryū kernel covers every reader mode (RyuHits).
	GrisuHits uint64
	// Deprecated: always zero, like GrisuHits.
	GrisuMisses uint64

	RyuHits     uint64 // nearest-mode shortest conversions served by Ryū
	RyuMisses   uint64 // Ryū attempted, declined (exact-halfway ties)
	GayHits     uint64 // fixed conversions certified by Gay's fast path
	GayMisses   uint64 // Gay fast path attempted, declined
	ExactFree   uint64 // exact free-format (shortest) conversions
	ExactFixed  uint64 // exact fixed-format conversions
	BatchValues uint64 // values converted by the batch engine
	BatchBytes  uint64 // bytes produced by the batch engine

	// Read-side counters (Parse/Parse32).  ParseFastHits and
	// ParseFastMisses count parses where the Eisel–Lemire fast path was
	// attempted (base 10, nearest-even reader); ParseExact counts every
	// run of the exact big-integer reader, including parses where no
	// fast path applied (other bases, directed rounding modes) and
	// parses that ended in ErrRange.
	ParseFastHits   uint64 // parses certified by the fast path
	ParseFastMisses uint64 // fast path attempted, declined to the reader
	ParseExact      uint64 // parses decided by the exact reader

	// Batch-parse counters (ParseBatch / batch.Pool.ParseAll).  Blocks
	// counts contiguous byte ranges scanned; Fallbacks counts tokens the
	// chunked block scanner declined and routed through the per-value
	// parser (those also advance the ParseFast*/ParseExact counters
	// above, exactly as a direct Parse call would).
	BatchParseBlocks    uint64 // contiguous byte ranges scanned
	BatchParseValues    uint64 // values parsed by the batch engine
	BatchParseBytes     uint64 // input bytes consumed by the batch engine
	BatchParseFallbacks uint64 // tokens declined to the per-value parser

	// Directed-rounding fast paths (floor/ceil printing and parsing, the
	// interval package's workhorses).  DirectedRyu* count one-sided
	// shortest conversions where a directed Ryū kernel was attempted;
	// DirectedFast* count directed-mode parses where the directed
	// Eisel–Lemire path was attempted.  Misses fall back to the exact
	// core/reader and also advance ExactFree / ParseExact.
	DirectedRyuHits    uint64 // directed prints served by one-sided Ryū
	DirectedRyuMisses  uint64 // one-sided Ryū attempted, declined
	DirectedFastHits   uint64 // directed parses certified by the fast path
	DirectedFastMisses uint64 // directed fast parse attempted, declined

	// Interval counters (the interval package).  Each counts whole
	// [lo,hi] operations; the per-endpoint directed conversions behind
	// them also advance the directed fast-path counters above (hits) or
	// ExactFree / ParseExact (misses and forced-exact runs).
	IntervalPrints uint64 // intervals formatted by interval.AppendShortest
	IntervalParses uint64 // intervals read by interval.Parse

	// Conversion-trace aggregates (the algorithm-level telemetry fed by
	// the tracing subsystem; see Trace).  TraceEstimates and TraceFixups
	// measure the §3.2 scale estimator on the exact path: the fixup rate
	// TraceFixups/TraceEstimates is the fraction of conversions where the
	// estimate came in one low and the penalty-free fixup fired.
	// TraceIterations and TraceDigits are summed over conversions, so
	// dividing by TraceConversions gives the mean generate-loop length and
	// mean output digits.  The per-backend mix and the digit-length
	// histogram are exposed via WriteTraceMetrics.
	TraceConversions uint64 // traced conversions folded into the aggregate
	TraceEstimates   uint64 // exact conversions that ran the §3.2 estimator
	TraceFixups      uint64 // estimator low by one: scale fixup fired
	TraceIterations  uint64 // summed digit-generation loop iterations
	TraceDigits      uint64 // summed significant output digits
	TraceRoundUps    uint64 // conversions whose last digit rounded up
}

// Snapshot returns the current telemetry counters.  Counters only
// advance while collection is enabled (SetStatsEnabled); a snapshot
// taken during concurrent conversions is per-field atomic.
func Snapshot() Stats {
	s := fromSnap(stats.Read())
	t := stats.Traces.Snapshot()
	s.TraceConversions = t.Conversions
	s.TraceEstimates = t.Estimates
	s.TraceFixups = t.Fixups
	s.TraceIterations = t.Iterations
	s.TraceDigits = t.Digits
	s.TraceRoundUps = t.RoundUps
	return s
}

// SetStatsEnabled turns telemetry collection on or off, returning the
// previous setting.  Collection is off by default: when disabled every
// instrumentation point is a single branch on an atomic bool, so the
// hot path pays nothing.  When enabled, each conversion adds one
// cache-line-padded atomic increment.
func SetStatsEnabled(on bool) bool { return stats.Enable(on) }

// ResetStats zeroes all telemetry counters.
func ResetStats() { stats.Reset() }

// Sub returns the per-field difference s − prev: the path mix of the
// work done between two Snapshot calls.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		RyuHits:     s.RyuHits - prev.RyuHits,
		RyuMisses:   s.RyuMisses - prev.RyuMisses,
		GayHits:     s.GayHits - prev.GayHits,
		GayMisses:   s.GayMisses - prev.GayMisses,
		ExactFree:   s.ExactFree - prev.ExactFree,
		ExactFixed:  s.ExactFixed - prev.ExactFixed,
		BatchValues: s.BatchValues - prev.BatchValues,
		BatchBytes:  s.BatchBytes - prev.BatchBytes,

		ParseFastHits:   s.ParseFastHits - prev.ParseFastHits,
		ParseFastMisses: s.ParseFastMisses - prev.ParseFastMisses,
		ParseExact:      s.ParseExact - prev.ParseExact,

		BatchParseBlocks:    s.BatchParseBlocks - prev.BatchParseBlocks,
		BatchParseValues:    s.BatchParseValues - prev.BatchParseValues,
		BatchParseBytes:     s.BatchParseBytes - prev.BatchParseBytes,
		BatchParseFallbacks: s.BatchParseFallbacks - prev.BatchParseFallbacks,

		DirectedRyuHits:    s.DirectedRyuHits - prev.DirectedRyuHits,
		DirectedRyuMisses:  s.DirectedRyuMisses - prev.DirectedRyuMisses,
		DirectedFastHits:   s.DirectedFastHits - prev.DirectedFastHits,
		DirectedFastMisses: s.DirectedFastMisses - prev.DirectedFastMisses,

		IntervalPrints: s.IntervalPrints - prev.IntervalPrints,
		IntervalParses: s.IntervalParses - prev.IntervalParses,

		TraceConversions: s.TraceConversions - prev.TraceConversions,
		TraceEstimates:   s.TraceEstimates - prev.TraceEstimates,
		TraceFixups:      s.TraceFixups - prev.TraceFixups,
		TraceIterations:  s.TraceIterations - prev.TraceIterations,
		TraceDigits:      s.TraceDigits - prev.TraceDigits,
		TraceRoundUps:    s.TraceRoundUps - prev.TraceRoundUps,
	}
}

// String renders the path mix as a small report, one counter per line,
// with fast-path hit rates where a ratio is meaningful.
func (s Stats) String() string {
	var sb strings.Builder
	line := func(name string, v uint64) {
		fmt.Fprintf(&sb, "  %-22s %12d\n", name, v)
	}
	rate := func(name string, hits, misses uint64) {
		line(name+" hits", hits)
		line(name+" misses", misses)
		if total := hits + misses; total > 0 {
			fmt.Fprintf(&sb, "  %-22s %11.2f%%\n", name+" hit rate",
				100*float64(hits)/float64(total))
		}
	}
	rate("ryu", s.RyuHits, s.RyuMisses)
	rate("gay fast-path", s.GayHits, s.GayMisses)
	line("exact free-format", s.ExactFree)
	line("exact fixed-format", s.ExactFixed)
	line("batch values", s.BatchValues)
	line("batch bytes", s.BatchBytes)
	rate("parse fast-path", s.ParseFastHits, s.ParseFastMisses)
	line("exact parses", s.ParseExact)
	line("batch-parse blocks", s.BatchParseBlocks)
	line("batch-parse values", s.BatchParseValues)
	line("batch-parse bytes", s.BatchParseBytes)
	line("batch-parse fallbacks", s.BatchParseFallbacks)
	if s.BatchParseValues > 0 {
		fmt.Fprintf(&sb, "  %-22s %11.4f%%\n", "batch-parse fb rate",
			100*float64(s.BatchParseFallbacks)/float64(s.BatchParseValues))
	}
	rate("directed ryu", s.DirectedRyuHits, s.DirectedRyuMisses)
	rate("directed parse", s.DirectedFastHits, s.DirectedFastMisses)
	line("interval prints", s.IntervalPrints)
	line("interval parses", s.IntervalParses)
	if s.TraceConversions > 0 {
		line("traced conversions", s.TraceConversions)
		line("scale estimates", s.TraceEstimates)
		line("scale fixups", s.TraceFixups)
		if s.TraceEstimates > 0 {
			fmt.Fprintf(&sb, "  %-22s %11.2f%%\n", "fixup rate",
				100*float64(s.TraceFixups)/float64(s.TraceEstimates))
		}
		fmt.Fprintf(&sb, "  %-22s %12.2f\n", "mean loop iterations",
			float64(s.TraceIterations)/float64(s.TraceConversions))
		fmt.Fprintf(&sb, "  %-22s %12.2f\n", "mean output digits",
			float64(s.TraceDigits)/float64(s.TraceConversions))
		line("round-ups", s.TraceRoundUps)
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
	for _, m := range []struct {
		name, help string
		v          uint64
	}{
		{"floatprint_ryu_hits_total", "Shortest conversions served by the Ryu fast path.", s.RyuHits},
		{"floatprint_ryu_misses_total", "Shortest conversions where Ryu declined (exact-halfway ties).", s.RyuMisses},
		{"floatprint_gay_hits_total", "Fixed conversions certified by Gay's fast path.", s.GayHits},
		{"floatprint_gay_misses_total", "Fixed conversions where Gay's fast path declined.", s.GayMisses},
		{"floatprint_exact_free_total", "Exact free-format (shortest) conversions.", s.ExactFree},
		{"floatprint_exact_fixed_total", "Exact fixed-format conversions.", s.ExactFixed},
		{"floatprint_batch_values_total", "Values converted by the batch engine.", s.BatchValues},
		{"floatprint_batch_bytes_total", "Bytes produced by the batch engine.", s.BatchBytes},
		{"floatprint_parse_fast_hits_total", "Parses certified by the Eisel-Lemire fast path.", s.ParseFastHits},
		{"floatprint_parse_fast_misses_total", "Parses where the fast path declined to the exact reader.", s.ParseFastMisses},
		{"floatprint_parse_exact_total", "Parses decided by the exact big-integer reader.", s.ParseExact},
		{"floatprint_batch_parse_blocks_total", "Contiguous byte ranges scanned by the batch parse engine.", s.BatchParseBlocks},
		{"floatprint_batch_parse_values_total", "Values parsed by the batch parse engine.", s.BatchParseValues},
		{"floatprint_batch_parse_bytes_total", "Input bytes consumed by the batch parse engine.", s.BatchParseBytes},
		{"floatprint_batch_parse_fallbacks_total", "Batch-parse tokens declined to the per-value parser.", s.BatchParseFallbacks},
		{"floatprint_directed_ryu_hits_total", "Directed shortest conversions served by the one-sided Ryu kernels.", s.DirectedRyuHits},
		{"floatprint_directed_ryu_misses_total", "Directed shortest conversions where a one-sided kernel declined.", s.DirectedRyuMisses},
		{"floatprint_directed_fast_hits_total", "Directed parses certified by the directed Eisel-Lemire fast path.", s.DirectedFastHits},
		{"floatprint_directed_fast_misses_total", "Directed parses where the fast path declined to the exact reader.", s.DirectedFastMisses},
		{"floatprint_interval_prints_total", "Intervals formatted by the interval package.", s.IntervalPrints},
		{"floatprint_interval_parses_total", "Intervals read by the interval package.", s.IntervalParses},
		{"floatprint_trace_conversions_total", "Conversions folded into the trace aggregate.", s.TraceConversions},
		{"floatprint_trace_estimates_total", "Exact conversions that ran the scale estimator.", s.TraceEstimates},
		{"floatprint_trace_fixups_total", "Scale estimates one low, corrected by the fixup loop.", s.TraceFixups},
		{"floatprint_trace_iterations_total", "Summed digit-generation loop iterations.", s.TraceIterations},
		{"floatprint_trace_digits_total", "Summed significant output digits.", s.TraceDigits},
		{"floatprint_trace_roundups_total", "Conversions whose last digit rounded up.", s.TraceRoundUps},
	} {
		if err := stats.WriteCounter(w, m.name, m.help, m.v); err != nil {
			return err
		}
	}
	return nil
}

func fromSnap(s stats.Snapshot) Stats {
	return Stats{
		RyuHits:     s.RyuHits,
		RyuMisses:   s.RyuMisses,
		GayHits:     s.GayHits,
		GayMisses:   s.GayMisses,
		ExactFree:   s.ExactFree,
		ExactFixed:  s.ExactFixed,
		BatchValues: s.BatchValues,
		BatchBytes:  s.BatchBytes,

		ParseFastHits:   s.ParseFastHits,
		ParseFastMisses: s.ParseFastMisses,
		ParseExact:      s.ParseExact,

		BatchParseBlocks:    s.BatchParseBlocks,
		BatchParseValues:    s.BatchParseValues,
		BatchParseBytes:     s.BatchParseBytes,
		BatchParseFallbacks: s.BatchParseFallbacks,

		DirectedRyuHits:    s.DirectedRyuHits,
		DirectedRyuMisses:  s.DirectedRyuMisses,
		DirectedFastHits:   s.DirectedFastHits,
		DirectedFastMisses: s.DirectedFastMisses,

		IntervalPrints: s.IntervalPrints,
		IntervalParses: s.IntervalParses,
	}
}
