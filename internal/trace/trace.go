// Package trace defines the per-conversion execution record of the
// printing algorithms: which Table-1 case initialized the state, what the
// two-flop scale estimate guessed versus what scaling settled on (did the
// penalty-free fixup fire?), how many digit-loop iterations ran, how the
// final digit was rounded, and which backend actually produced the digits
// (a Ryū kernel, Gay's fixed fast path, or the exact big-integer
// algorithm).
//
// The record turns the paper's headline behavioral claims — "the estimate
// is never more than one too low" (§3.2), "the loop emits the minimal
// digit count" (§2) — into observable, continuously measurable events
// instead of comments.  The exact core keeps one record per conversion
// in its pooled state and writes every step into it unconditionally; a
// traced call copies the finished record to the caller, and an untraced
// call copies nothing.  The fast paths fill the caller's record only
// when one is supplied.
//
// The package sits below everything: it imports nothing from the
// repository, so internal/core and the public package can share the
// record without cycles.  The process-wide counters of the same events
// (internal/stats' Trace* counters) are internal/core's records summed:
// each finished exact conversion adds its record while collection is
// on, whether or not a caller asked for a copy.
package trace

// Backend identifies which algorithm produced a conversion's digits.
type Backend uint8

const (
	// BackendNone marks a record that never reached digit generation
	// (specials: ±0, Inf, NaN).
	BackendNone Backend = iota
	// BackendGay is Gay's certified fixed-format fast path.
	BackendGay
	// BackendExactFree is the exact big-integer free-format algorithm.
	BackendExactFree
	// BackendExactFixed is the exact big-integer fixed-format algorithm.
	BackendExactFixed
	// BackendFastParse is the certified Eisel–Lemire read-side fast path.
	BackendFastParse
	// BackendExactParse is the exact big-integer reader (read side).
	BackendExactParse
	// BackendRyu is the Ryū free-format fast path: the nearest kernel
	// under any nearest reader mode, or a one-sided directed kernel.
	BackendRyu
)

func (b Backend) String() string {
	switch b {
	case BackendGay:
		return "gay-fixed"
	case BackendExactFree:
		return "exact-free"
	case BackendExactFixed:
		return "exact-fixed"
	case BackendFastParse:
		return "fastparse"
	case BackendExactParse:
		return "exact-parse"
	case BackendRyu:
		return "ryu"
	}
	return "none"
}

// Conversion is one conversion's execution trace.  The algorithm that
// fills it resets the record first, so a value can be reused across calls;
// nothing in the record aliases algorithm state.  Fields that a given
// backend does not exercise stay zero (the Ryū kernels have no scale
// estimate; free format has no Position).
type Conversion struct {
	// Backend is the algorithm that produced the digits.
	Backend Backend
	// FastPathMiss reports that a certified fast path was attempted first
	// and failed certification, so Backend is the exact fallback.
	FastPathMiss bool

	// Base is the output base B.
	Base int
	// Mode is the reader rounding assumption ("nearest-even", ...).
	Mode string
	// LowOK and HighOK are the endpoint-admissibility flags the mode
	// implies for this value (the paper's Figure 1 low-ok?/high-ok?).
	LowOK, HighOK bool

	// Table1Case is the row of the paper's Table 1 that initialized
	// r, s, m⁺, m⁻: 1 (e ≥ 0), 2 (e ≥ 0 at a binade boundary), 3 (e < 0),
	// 4 (e < 0 at a boundary).  Exact backends only.
	Table1Case int

	// ScaleMethod is the Table-2 scaling strategy that ran ("estimate",
	// "iterative", "floatlog").  Exact backends only.
	ScaleMethod string
	// EstimateK is the initial scale guess: the paper's two-flop estimate
	// for "estimate", the logarithm for "floatlog", and the found k itself
	// for "iterative" (which has no estimate to be wrong).
	EstimateK int
	// ScaleK is the scale factor scaling settled on, before any rounding
	// carry.  §3.2's envelope is ScaleK − EstimateK ∈ {0, 1} for the
	// estimate strategy on binary inputs.
	ScaleK int
	// FixupSteps is ScaleK − EstimateK: 0 when the estimate was exact,
	// 1 when the penalty-free fixup fired.
	FixupSteps int

	// Iterations counts digit-generation loop iterations (digits emitted
	// before trimming/rounding) — the §2 minimality metric.
	Iterations int
	// TC1 and TC2 are the termination conditions at the final digit:
	// TC1 means r < m⁻ (the digits as generated read back to v), TC2 means
	// r + m⁺ > s (the incremented last digit reads back to v).
	TC1, TC2 bool
	// TieBreak reports that both conditions held and the closer-candidate
	// comparison (2r vs s) decided the final rounding.
	TieBreak bool
	// RoundedUp reports the final digit was incremented.
	RoundedUp bool
	// CarriedK reports the round-up carry rippled past the first digit,
	// gaining a leading 1 and raising K (footnote 2 of the paper).
	CarriedK bool

	// Position is the absolute digit position j of a fixed-format
	// conversion; RelativeN the requested significant-digit count, and
	// Refinements how many position-estimate passes the relative driver
	// needed (9.97 → "10" takes two).
	Position    int
	RelativeN   int
	Refinements int

	// K, Digits, and NSig describe the result: V = 0.d₁…d_Digits × Bᴷ
	// with NSig significant positions.
	K      int
	Digits int
	NSig   int
	// Ops is the high-precision operation count (the Table-2 cost metric),
	// exact backends only.
	Ops int
}

// Reset zeroes the record in place (allocation-free reuse).
func (c *Conversion) Reset() { *c = Conversion{} }

// Summary renders the record as one compact key=value line — the form
// a request span or a log field carries when the full struct is too
// wide.  Fields a backend does not exercise are omitted, so a fast
// path summary reads "backend=ryu digits=17 k=0" while an exact
// conversion adds its Table-1 case, scaling story, and loop counts.
func (c *Conversion) Summary() string {
	var b []byte
	b = append(b, "backend="...)
	b = append(b, c.Backend.String()...)
	if c.FastPathMiss {
		b = append(b, " fastpath=miss"...)
	}
	if c.Table1Case != 0 {
		b = appendKV(b, "case", c.Table1Case)
	}
	if c.ScaleMethod != "" {
		b = append(b, " scale="...)
		b = append(b, c.ScaleMethod...)
		b = appendKV(b, "estimate_k", c.EstimateK)
		b = appendKV(b, "fixup", c.FixupSteps)
	}
	if c.Iterations != 0 {
		b = appendKV(b, "iterations", c.Iterations)
	}
	switch {
	case c.TieBreak:
		b = append(b, " term=tie"...)
	case c.TC1 && c.TC2:
		b = append(b, " term=tc1+tc2"...)
	case c.TC1:
		b = append(b, " term=tc1"...)
	case c.TC2:
		b = append(b, " term=tc2"...)
	}
	if c.RoundedUp {
		b = append(b, " rounded=up"...)
		if c.CarriedK {
			b = append(b, " carried=k"...)
		}
	}
	b = appendKV(b, "digits", c.Digits)
	b = appendKV(b, "k", c.K)
	return string(b)
}

// appendKV appends " key=value" with a minimal signed-int formatter
// (the package imports nothing, strconv included).
func appendKV(b []byte, key string, v int) []byte {
	b = append(b, ' ')
	b = append(b, key...)
	b = append(b, '=')
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var d [20]byte
	i := len(d)
	for {
		i--
		d[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, d[i:]...)
}
