// Package stats is the conversion-path telemetry layer: a handful of
// process-global atomic counters that record which algorithm actually
// produced each result — a Ryū kernel, Gay's fixed-format fast path, an
// Eisel–Lemire parse, or the exact big-integer fallback — plus the
// aggregate value/byte totals of the batch engines.
//
// The counters exist to make the paper's Table-2/3 style measurements
// self-describing: a throughput number is only meaningful alongside the
// path mix that produced it (every base-10 shortest conversion is a Ryū
// hit unless the exact backend is forced; a run that drives the exact
// path is measuring a different algorithm).
//
// Collection is off by default and enabled with Enable(true): when
// disabled, every hot-path hook is a single predictable branch on an
// atomic bool load (a plain MOV on x86), so the telemetry layer costs
// nothing unless someone is looking.  When enabled, each hook is one
// atomic add on a counter padded to its own cache line, so different
// counters never false-share.  Goroutines bumping the same counter do
// contend on its line, so the batch engines tally in locals and Add
// each total once per chunk or call rather than once per value.
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

// Counter names one telemetry counter: it indexes the package's array
// of cache-line-padded counters (the hooks run on every conversion from
// every shard; false sharing between, say, the ryu-hit and batch-bytes
// counters would serialize unrelated workers).  The counters are
// constants, so a hook such as RyuHits.Inc() compiles to one atomic add
// on a fixed address.
type Counter uint8

// The counters, in the order every derived form lists them.  Hits and
// hit/miss pairs count only conversions where the fast path ran (base
// 10, fast paths not switched off); ExactFree and ExactFixed count every
// conversion that ran the exact big-integer algorithm, including those
// where no fast path applied (other bases, explicit positions).
const (
	// RyuHits counts nearest-mode shortest conversions served by the Ryū
	// kernel (binary64 and binary32).
	RyuHits Counter = iota
	// GayHits counts fixed-format conversions certified by Gay's
	// extended-float fast path.
	GayHits
	// GayMisses counts fixed-format conversions where the fast path was
	// attempted but declined.
	GayMisses
	// ExactFree counts exact free-format (shortest) conversions.
	ExactFree
	// ExactFixed counts exact fixed-format conversions (relative or
	// absolute position).
	ExactFixed
	// BatchValues counts values converted by the batch engine.
	BatchValues
	// BatchBytes counts output bytes produced by the batch engine.
	BatchBytes
	// ParseFastHits counts nearest-mode parses, in either width,
	// certified by the Eisel–Lemire fast path.
	ParseFastHits
	// ParseFastMisses counts nearest-mode parses, in either width, where
	// the fast path was attempted (base 10) but declined and the exact
	// reader decided.
	ParseFastMisses
	// ParseExact counts parses decided by the exact big-integer reader,
	// including those where no fast path applied (other bases, the exact
	// backend) and those that ended in a range error.
	ParseExact
	// BatchParseBlocks counts contiguous byte ranges scanned by the
	// block-at-a-time batch parse engine.
	BatchParseBlocks
	// BatchParseValues counts values parsed by the batch parse engine.
	BatchParseValues
	// BatchParseBytes counts input bytes consumed by the batch parse
	// engine.
	BatchParseBytes
	// BatchParseFallbacks counts batch-parse tokens the chunked block
	// scanner declined and routed to the specials and the exact reader
	// (specials, '#' marks, '@' exponents, out-of-range magnitudes).
	BatchParseFallbacks
	// DirectedRyuHits counts directed (floor/ceil) shortest conversions
	// served by the one-sided Ryū kernels (binary64 and binary32).
	DirectedRyuHits
	// DirectedFastHits counts directed-mode parses, in either width,
	// certified by the Eisel–Lemire fast path.
	DirectedFastHits
	// DirectedFastMisses counts directed-mode parses, in either width,
	// where the fast path was attempted (base 10) but declined and the
	// exact reader decided.
	DirectedFastMisses
	// IntervalPrints counts intervals formatted by the interval package
	// (one per [lo,hi] pair, not per endpoint; the endpoints' exact
	// conversions also appear in ExactFree).
	IntervalPrints
	// IntervalParses counts intervals read by the interval package (one
	// per [lo,hi] text; the endpoints' exact conversions also appear in
	// ParseExact).
	IntervalParses
	// TraceEstimates counts exact print conversions that ran the §3.2
	// scale estimator.  It and the other Trace* counters are advanced by
	// internal/core, once per exact conversion, when its digit loop
	// finishes (a fixed-format refinement pass that is thrown away
	// counts nothing).
	TraceEstimates
	// TraceFixups counts estimates one too low, where the penalty-free
	// fixup fired.
	TraceFixups
	// TraceIterations sums exact digit-loop iterations.
	TraceIterations
	// TraceDigits sums the significant output digits of exact
	// conversions.
	TraceDigits
	// TraceRoundUps counts exact conversions whose final digit was
	// incremented.
	TraceRoundUps

	// NumCounters is the number of counters.
	NumCounters
)

// counters holds every Counter's value, one cache line each.
var counters [NumCounters]Raw

// Inc adds one when collection is enabled.
func (c Counter) Inc() {
	if enabled.Load() {
		counters[c].Inc()
	}
}

// Add adds n when collection is enabled.  The batch engines use it to
// fold a whole chunk's or call's tally into the global counter with one
// atomic op.
func (c Counter) Add(n uint64) {
	if enabled.Load() {
		counters[c].Add(n)
	}
}

// Snapshot is a copy of every counter, indexed by Counter.  Each
// element is an atomic load, so a snapshot taken while conversions are
// in flight may straddle an individual conversion but never tears a
// counter.
type Snapshot [NumCounters]uint64

// Read snapshots all counters, regardless of the enabled gate.
func Read() Snapshot {
	var s Snapshot
	for i := range counters {
		s[i] = counters[i].Load()
	}
	return s
}

// Reset zeroes every counter (tests and benchmark phases).
func Reset() {
	for i := range counters {
		counters[i].n.Store(0)
	}
}
