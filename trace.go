package floatprint

import (
	"floatprint/internal/fpformat"
	"floatprint/internal/trace"
)

// Trace is a per-conversion execution record: which backend produced the
// digits (a Ryū kernel, Gay's fixed fast path, or the exact big-integer
// algorithm), the Table-1 case, the §3.2 scale estimate versus the final
// scale (whether the penalty-free fixup fired), the generate-loop
// iteration count, and the final rounding decision.
//
// Pass a Trace to the *Traced entry points to have it filled (the record
// is overwritten, so one value can be reused across calls).  Tracing
// never perturbs the result or the telemetry: a traced conversion is
// byte-identical to its untraced twin and moves the Snapshot counters
// exactly as the twin does.  The exact algorithm records every
// conversion anyway, so tracing one costs a copy of its record.
type Trace = trace.Conversion

// Backend constants for Trace.Backend, re-exported for callers matching
// on the deciding algorithm.
const (
	TraceBackendNone       = trace.BackendNone
	TraceBackendGay        = trace.BackendGay
	TraceBackendExactFree  = trace.BackendExactFree
	TraceBackendExactFixed = trace.BackendExactFixed
	TraceBackendFastParse  = trace.BackendFastParse
	TraceBackendExactParse = trace.BackendExactParse
	TraceBackendRyu        = trace.BackendRyu
)

// ShortestDigitsTraced is ShortestDigits recording the conversion's
// execution trace into tr.  A nil tr is allowed and makes it exactly
// ShortestDigits.
func ShortestDigitsTraced(v float64, opts *Options, tr *Trace) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	return shortestValueTraced(v, false, o, tr)
}

// FixedDigitsTraced is FixedDigits recording the conversion's execution
// trace into tr (nil allowed).
func FixedDigitsTraced(v float64, n int, opts *Options, tr *Trace) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	return fixedValueTraced(fpformat.DecodeFloat64(v), n, o, tr)
}

// FixedPositionDigitsTraced is FixedPositionDigits recording the
// conversion's execution trace into tr (nil allowed).
func FixedPositionDigitsTraced(v float64, pos int, opts *Options, tr *Trace) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	return fixedPositionValueTraced(fpformat.DecodeFloat64(v), pos, o, tr)
}

// traceSpecial fills tr for a value that never reaches digit generation
// (±0, Inf, NaN): backend "none", everything else zero.
func traceSpecial(tr *Trace, base int) {
	if tr != nil {
		tr.Reset()
		tr.Base = base
	}
}
