package floatprint

import (
	"fmt"

	"floatprint/internal/core"
	"floatprint/internal/reader"
)

// ReaderRounding describes how the program that will eventually read the
// printed number back rounds values that fall exactly halfway between two
// floating-point numbers.  Knowing the reader lets the printer use the
// endpoints of the rounding range and sometimes save a digit (the paper's
// Section 3); when in doubt, ReaderUnknown is always safe.
type ReaderRounding int

const (
	// ReaderNearestEven assumes an IEEE round-to-nearest-even reader, the
	// behavior of strconv.ParseFloat, C strtod, and this package's Parse
	// default.  This is the package default.
	ReaderNearestEven ReaderRounding = iota
	// ReaderUnknown assumes nothing about the reader; output round-trips
	// under any reasonable round-to-nearest reader.
	ReaderUnknown
	// ReaderNearestAway assumes the reader rounds ties away from zero.
	ReaderNearestAway
	// ReaderNearestTowardZero assumes the reader rounds ties toward zero.
	ReaderNearestTowardZero
	// ReaderTowardNegInf selects IEEE directed rounding toward −∞.  For
	// Parse it rounds every inexact input down — the outward rounding an
	// interval *lower* bound needs — saturating positive overflow at
	// MaxFloat64 and stopping positive underflow at the smallest
	// denormal.  For printing it emits the shortest string in v's upper
	// half-gap [v, v+m⁺) (ShortestAboveDigits): such a string reads back
	// as exactly v under a toward-negative reader, and under any nearest
	// reader as well.
	ReaderTowardNegInf
	// ReaderTowardPosInf selects IEEE directed rounding toward +∞, the
	// mirror of ReaderTowardNegInf: Parse rounds every inexact input up,
	// and printing emits the shortest string in the lower half-gap
	// (v−m⁻, v] (ShortestBelowDigits).
	ReaderTowardPosInf
)

func (r ReaderRounding) String() string {
	if r.directed() {
		return r.reader().String()
	}
	return r.core().String()
}

// directed reports whether r is one of the two directed (interval) modes,
// which take a one-sided printing path instead of the nearest-range core.
func (r ReaderRounding) directed() bool {
	return r == ReaderTowardNegInf || r == ReaderTowardPosInf
}

// printsAbove reports whether directed reader r prints the upper
// one-sided bound of a magnitude whose value has sign neg.  A
// toward-negative reader truncates every inexact value, so only a
// string in [v, v+m⁺) reads back as v: it gets the upper bound in value
// order, and a toward-positive reader the lower one; a negative value's
// magnitude takes the other side.
func (r ReaderRounding) printsAbove(neg bool) bool {
	return (r == ReaderTowardNegInf) != neg
}

// core maps r to the exact core's nearest-range reader assumption.  The
// directed modes never reach the free-format core (shortestValueTraced
// routes them to the one-sided kernels or Floor/CeilFormat); where a nearest-range
// assumption is still needed — the fixed-format significance analysis —
// they fall back to the conservative ReaderUnknown, whose output is valid
// under every reader.
func (r ReaderRounding) core() core.ReaderMode {
	switch r {
	case ReaderUnknown, ReaderTowardNegInf, ReaderTowardPosInf:
		return core.ReaderUnknown
	case ReaderNearestAway:
		return core.ReaderNearestAway
	case ReaderNearestTowardZero:
		return core.ReaderNearestTowardZero
	default:
		return core.ReaderNearestEven
	}
}

func (r ReaderRounding) reader() reader.RoundMode {
	switch r {
	case ReaderNearestAway:
		return reader.NearestAway
	case ReaderNearestTowardZero:
		return reader.NearestTowardZero
	case ReaderTowardNegInf:
		return reader.TowardNegInf
	case ReaderTowardPosInf:
		return reader.TowardPosInf
	default:
		return reader.NearestEven
	}
}

// Backend selects whether conversions may take the certified fast paths.
// Every choice produces byte-identical output: the Ryū kernels decide
// every base-10 shortest value exactly as the Burger & Dybvig core does,
// ties included, and the fixed-format and parse fast paths follow the
// decline-don't-error contract, falling through to the exact algorithms
// whenever they cannot certify a result.  Other bases always run the
// exact algorithms.  Selecting a backend therefore changes the path mix
// and the speed, never the answer.
//
// Backend also gates Parse's certified fast paths: BackendExact forces
// every parse through the exact big-integer reader, where BackendAuto
// lets the Eisel–Lemire paths (nearest-even and directed) serve what they
// can certify.  Parsed values and errors are identical either way — the
// knob exists so differential tests and benchmarks can pin the exact
// path.
type Backend int

const (
	// BackendAuto lets the fast paths serve what they can: the Ryū
	// kernels every base-10 shortest request of a binary64 or binary32
	// value under any reader mode, Gay's fast path base-10 fixed-format
	// requests of a binary64 value, and Parse's Eisel–Lemire paths.  This
	// is the default.
	BackendAuto Backend = iota
	// BackendExact always runs the paper's exact big-integer algorithm,
	// and for Parse the exact big-integer reader.
	BackendExact
)

func (b Backend) String() string {
	if b == BackendExact {
		return "exact"
	}
	return "auto"
}

// ParseBackend converts a backend name ("auto" or "exact"; "" means auto)
// to its Backend value.  The serving layer and CLIs use it to accept
// backend selections as text.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "exact":
		return BackendExact, nil
	}
	return BackendAuto, fmt.Errorf("floatprint: unknown backend %q (want auto or exact)", s)
}

// Notation selects how digit results are rendered as text.
type Notation int

const (
	// NotationAuto uses positional notation for moderate scale factors and
	// scientific notation otherwise, like Go's %g.
	NotationAuto Notation = iota
	// NotationScientific always renders d.ddd…e±x.
	NotationScientific
	// NotationPositional always renders plain digits around a radix point.
	NotationPositional
)

// Options configures conversions.  The zero value is ready to use: base
// 10, a nearest-even reader, automatic notation, and '#' marks.  The
// exact core always scales with the paper's two-flop estimator; the
// slower Table 2 strategies are reachable only through the benchmarks.
type Options struct {
	// Base is the output (or input, for Parse) base, 2 to 36.
	// Zero means 10.
	Base int
	// Reader is the assumed rounding behavior of whoever reads the output.
	Reader ReaderRounding
	// Notation controls text rendering.
	Notation Notation
	// Backend selects whether the certified fast paths may run.  Zero
	// (BackendAuto) lets them serve what they can certify.  Output never
	// depends on the choice; only speed does.
	Backend Backend
	// NoMarks renders insignificant trailing digits as '0' instead of the
	// paper's '#' marks.  The digits still read back correctly; only the
	// explicit insignificance annotation is lost.
	NoMarks bool
}

// defaultOptions is the normalized form of a nil *Options: base 10,
// nearest-even reader, automatic notation, marks on.
func defaultOptions() Options {
	return Options{Base: 10}
}

// norm returns o with defaults applied, validating the base and backend.
// Error construction lives in normErr so norm itself stays within the
// inlining budget: it runs on every call of the append fast paths, where
// an out-of-line call plus two fmt.Errorf bodies would cost more than
// the conversion's rendering.
func (o *Options) norm() (Options, error) {
	var v Options
	if o != nil {
		v = *o
	}
	if v.Base == 0 {
		v.Base = 10
	}
	if v.Base < 2 || v.Base > 36 || v.Backend < BackendAuto || v.Backend > BackendExact {
		return v, v.normErr()
	}
	return v, nil
}

// normErr builds the validation error for a norm failure.
func (o Options) normErr() error {
	if o.Base < 2 || o.Base > 36 {
		return fmt.Errorf("floatprint: base %d out of range [2,36]", o.Base)
	}
	return fmt.Errorf("floatprint: unknown backend %d", o.Backend)
}
