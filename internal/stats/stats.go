// Package stats is the conversion-path telemetry layer: a handful of
// process-global atomic counters that record which algorithm actually
// produced each result — a Ryū kernel, Gay's fixed-format fast path, an
// Eisel–Lemire parse, or the exact big-integer fallback — plus the
// aggregate value/byte totals of the batch engines.
//
// The counters exist to make the paper's Table-2/3 style measurements
// self-describing: a throughput number is only meaningful alongside the
// path mix that produced it (~99.98% of base-10 shortest conversions are
// Ryū hits under every nearest reader mode; a corpus that drives the
// exact path harder is measuring a different algorithm).
//
// Collection is off by default and enabled with Enable(true): when
// disabled, every hot-path hook is a single predictable branch on an
// atomic bool load (a plain MOV on x86), so the telemetry layer costs
// nothing unless someone is looking.  When enabled, each hook is one
// uncontended atomic add on a counter padded to its own cache line, so
// concurrent shards never false-share.
package stats

import "sync/atomic"

// enabled gates all Counter increments.  It is atomic so Enable can be
// called while conversions are in flight (fpbench toggles it between
// experiment phases).
var enabled atomic.Bool

// Enable turns collection on or off and returns the previous setting.
func Enable(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether collection is on.
func Enabled() bool { return enabled.Load() }

// Counter is one telemetry counter, padded so that adjacent counters in
// the package-level block sit on distinct cache lines (the hooks run on
// every conversion from every shard; false sharing between, say, the
// ryu-hit and batch-bytes counters would serialize unrelated workers).
type Counter struct {
	n atomic.Uint64
	_ [56]byte
}

// Inc adds one when collection is enabled.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.n.Add(1)
	}
}

// Add adds n when collection is enabled.  Batch shards use it to fold a
// whole chunk's tally into the global counter with one atomic op.
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.n.Add(n)
	}
}

// Load returns the current count regardless of the enabled gate.
func (c *Counter) Load() uint64 { return c.n.Load() }

// The counters.  Hit/miss pairs count only conversions where the fast
// path was *attempted* (base 10, default scaling); ExactFree
// and ExactFixed count every conversion that ran the exact big-integer
// algorithm, including those where no fast path applied (other bases,
// non-default scaling, explicit positions).
var (
	// RyuHits counts nearest-mode shortest conversions served by the Ryū
	// kernel (binary64 and binary32).
	RyuHits Counter
	// RyuMisses counts shortest conversions where Ryū was attempted but
	// declined (exact-halfway ties) and the exact core decided.
	RyuMisses Counter
	// GayHits counts fixed-format conversions certified by Gay's
	// extended-float fast path.
	GayHits Counter
	// GayMisses counts fixed-format conversions where the fast path was
	// attempted but declined.
	GayMisses Counter
	// ExactFree counts exact free-format (shortest) conversions.
	ExactFree Counter
	// ExactFixed counts exact fixed-format conversions (relative or
	// absolute position).
	ExactFixed Counter
	// BatchValues counts values converted by the batch engine.
	BatchValues Counter
	// BatchBytes counts output bytes produced by the batch engine.
	BatchBytes Counter
	// ParseFastHits counts parses certified by the Eisel–Lemire fast
	// path.
	ParseFastHits Counter
	// ParseFastMisses counts parses where the fast path was attempted
	// (base 10, nearest-even) but declined and the exact reader decided.
	ParseFastMisses Counter
	// ParseExact counts parses decided by the exact big-integer reader,
	// including those where no fast path applied (other bases, directed
	// modes) and those that ended in a range error.
	ParseExact Counter
	// BatchParseBlocks counts contiguous byte ranges scanned by the
	// block-at-a-time batch parse engine.
	BatchParseBlocks Counter
	// BatchParseValues counts values parsed by the batch parse engine.
	BatchParseValues Counter
	// BatchParseBytes counts input bytes consumed by the batch parse
	// engine.
	BatchParseBytes Counter
	// BatchParseFallbacks counts batch-parse tokens the chunked block
	// scanner declined and routed through the per-value parser (specials,
	// '#' marks, '@' exponents, ties, out-of-range magnitudes).
	BatchParseFallbacks Counter
	// DirectedRyuHits counts directed (floor/ceil) shortest conversions
	// served by the one-sided Ryū kernels.
	DirectedRyuHits Counter
	// DirectedRyuMisses counts directed shortest conversions where a
	// one-sided kernel was attempted but declined and the exact core
	// decided.
	DirectedRyuMisses Counter
	// DirectedFastHits counts directed-rounding parses certified by the
	// directed Eisel–Lemire fast path.
	DirectedFastHits Counter
	// DirectedFastMisses counts directed-rounding parses where the fast
	// path was attempted (base 10, binary64) but declined and the exact
	// reader decided.
	DirectedFastMisses Counter
	// IntervalPrints counts intervals formatted by the interval package
	// (one per [lo,hi] pair, not per endpoint; the endpoints' exact
	// conversions also appear in ExactFree).
	IntervalPrints Counter
	// IntervalParses counts intervals read by the interval package (one
	// per [lo,hi] text; the endpoints' exact conversions also appear in
	// ParseExact).
	IntervalParses Counter
)

// Snapshot is a coherent-enough copy of every counter: each field is an
// atomic load, so a snapshot taken while conversions are in flight may
// straddle an individual conversion but never tears a counter.
type Snapshot struct {
	RyuHits, RyuMisses             uint64
	GayHits, GayMisses             uint64
	ExactFree, ExactFixed          uint64
	BatchValues, BatchBytes        uint64
	ParseFastHits, ParseFastMisses uint64
	ParseExact                     uint64

	BatchParseBlocks, BatchParseValues   uint64
	BatchParseBytes, BatchParseFallbacks uint64

	DirectedRyuHits, DirectedRyuMisses   uint64
	DirectedFastHits, DirectedFastMisses uint64

	IntervalPrints, IntervalParses uint64
}

// Read snapshots all counters.
func Read() Snapshot {
	return Snapshot{
		RyuHits:     RyuHits.Load(),
		RyuMisses:   RyuMisses.Load(),
		GayHits:     GayHits.Load(),
		GayMisses:   GayMisses.Load(),
		ExactFree:   ExactFree.Load(),
		ExactFixed:  ExactFixed.Load(),
		BatchValues: BatchValues.Load(),
		BatchBytes:  BatchBytes.Load(),

		ParseFastHits:   ParseFastHits.Load(),
		ParseFastMisses: ParseFastMisses.Load(),
		ParseExact:      ParseExact.Load(),

		BatchParseBlocks:    BatchParseBlocks.Load(),
		BatchParseValues:    BatchParseValues.Load(),
		BatchParseBytes:     BatchParseBytes.Load(),
		BatchParseFallbacks: BatchParseFallbacks.Load(),

		DirectedRyuHits:    DirectedRyuHits.Load(),
		DirectedRyuMisses:  DirectedRyuMisses.Load(),
		DirectedFastHits:   DirectedFastHits.Load(),
		DirectedFastMisses: DirectedFastMisses.Load(),

		IntervalPrints: IntervalPrints.Load(),
		IntervalParses: IntervalParses.Load(),
	}
}

// Sub returns the per-field difference s − prev, the path mix of the
// work done between two Read calls.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
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
	}
}

// Reset zeroes every counter and the global trace aggregate (tests and
// benchmark phases).
func Reset() {
	for _, c := range []*Counter{
		&RyuHits, &RyuMisses, &GayHits, &GayMisses,
		&ExactFree, &ExactFixed, &BatchValues, &BatchBytes,
		&ParseFastHits, &ParseFastMisses, &ParseExact,
		&BatchParseBlocks, &BatchParseValues, &BatchParseBytes, &BatchParseFallbacks,
		&DirectedRyuHits, &DirectedRyuMisses, &DirectedFastHits, &DirectedFastMisses,
		&IntervalPrints, &IntervalParses,
	} {
		c.n.Store(0)
	}
	Traces.Reset()
}
