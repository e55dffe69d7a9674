// Command fpinspect dissects a floating-point number the way the paper
// reasons about one: bit fields, the (f, e) mantissa/exponent form, the
// neighbors v⁻ and v⁺, the rounding range, and the shortest output under
// each reader rounding assumption.
//
//	fpinspect 0.3
//	fpinspect 1e23
//	fpinspect -bits 0x3fd3333333333333
//	fpinspect -trace 9007199254740993
//
// With -trace, fpinspect prints the conversion's explain plan instead:
// which backend decided the digits, the Table-1 initialization case, the
// §3.2 scale estimate versus the final scale (whether the penalty-free
// fixup fired), the generate-loop iteration count, and the final
// rounding decision.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"floatprint"
	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/trace"
)

func main() {
	bits := flag.String("bits", "", "inspect a raw IEEE bit pattern (hex) instead of a parsed value")
	traceF := flag.Bool("trace", false, "print the conversion's explain plan (trace) instead of the bit dissection")
	flag.Parse()

	show := inspect
	if *traceF {
		show = explain
	}
	if *bits != "" {
		u, err := strconv.ParseUint(*bits, 0, 64)
		if err != nil {
			fatal(err)
		}
		show(math.Float64frombits(u))
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: fpinspect [-trace] [-bits 0x...] number...")
		os.Exit(2)
	}
	for _, arg := range flag.Args() {
		v, err := floatprint.Parse(arg, nil)
		if err != nil {
			fatal(err)
		}
		show(v)
	}
}

func inspect(v float64) {
	u := math.Float64bits(v)
	fmt.Printf("value    %v\n", v)
	fmt.Printf("bits     0x%016x  (sign=%d biased-exp=%d mantissa=0x%013x)\n",
		u, u>>63, (u>>52)&0x7ff, u&(1<<52-1))

	val := fpformat.DecodeFloat64(v)
	fmt.Printf("class    %v\n", val.Class)
	if !val.IsFinite() || val.Class == fpformat.Zero {
		fmt.Println()
		return
	}
	fmt.Printf("f × bᵉ   %s × 2^%d   (even mantissa: %v, binade boundary: %v)\n",
		val.F, val.E, val.MantissaEven(), val.IsBoundary())

	if prev, err := fpformat.Prev(val).Float64(); err == nil {
		fmt.Printf("v⁻       %v  (gap below: %v)\n", prev, v-prev)
	}
	next := fpformat.Next(val)
	if next.Class == fpformat.Inf {
		fmt.Printf("v⁺       +Inf\n")
	} else if nf, err := next.Float64(); err == nil {
		fmt.Printf("v⁺       %v  (gap above: %v)\n", nf, nf-v)
	}

	modes := []struct {
		name string
		mode floatprint.ReaderRounding
	}{
		{"nearest-even reader", floatprint.ReaderNearestEven},
		{"unknown reader     ", floatprint.ReaderUnknown},
		{"ties-away reader   ", floatprint.ReaderNearestAway},
		{"ties-to-zero reader", floatprint.ReaderNearestTowardZero},
	}
	for _, m := range modes {
		s, err := floatprint.Format(v, &floatprint.Options{Reader: m.mode})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("shortest (%s)  %s\n", m.name, s)
	}
	fmt.Printf("17 digits          %s\n", floatprint.Fixed(v, 17))
	fmt.Printf("25 digits          %s\n", floatprint.Fixed(v, 25))
	fmt.Println()
}

// explain prints the conversion's execution trace: first what the public
// API actually did (which usually means the Ryū kernel),
// then the exact algorithm's plan for the same value, which is where the
// paper's machinery — Table-1 case, scale estimate and fixup, loop
// termination — lives even when a fast path short-circuited it.
func explain(v float64) {
	var tr floatprint.Trace
	d, err := floatprint.ShortestDigitsTraced(v, nil, &tr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("value     %v\n", v)
	if d.Class != floatprint.Finite {
		fmt.Printf("path      none (special: %s)\n\n", d.String())
		return
	}
	fmt.Printf("shortest  %s\n", d.String())
	fmt.Printf("path      %s", tr.Backend)
	if tr.Backend == floatprint.TraceBackendRyu {
		fmt.Printf(" (certified fast path: %d digits, exact algorithm skipped)", tr.Digits)
	}
	fmt.Println()

	// The exact algorithm's plan, forced even when a fast path decided the
	// public conversion above.
	val := fpformat.DecodeFloat64(v)
	val.Neg = false
	var etr trace.Conversion
	res, err := core.FreeFormatTraced(val, 10, core.ScalingEstimate, core.ReaderNearestEven, &etr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("exact algorithm plan (nearest-even reader):\n")
	// The flags are the ones the row implies: rows 1–2 have e ≥ 0 and rows
	// 2 and 4 are the narrow-gap binade boundary, which excludes the
	// smallest normal (its predecessor is a denormal at the same spacing).
	fmt.Printf("  table-1 case      %d  (e>=0: %v, binade boundary: %v)\n",
		etr.Table1Case, etr.Table1Case <= 2, etr.Table1Case%2 == 0)
	fmt.Printf("  scale estimate    k=%d (%s)\n", etr.EstimateK, etr.ScaleMethod)
	if etr.FixupSteps > 0 {
		fmt.Printf("  scale fixup       fired: final k=%d (+%d)\n", etr.ScaleK, etr.FixupSteps)
	} else {
		fmt.Printf("  scale fixup       not needed: final k=%d\n", etr.ScaleK)
	}
	fmt.Printf("  generate loop     %d iterations -> %d digits\n", etr.Iterations, etr.Digits)
	fmt.Printf("  termination       low=%v high=%v", etr.TC1, etr.TC2)
	if etr.TieBreak {
		fmt.Printf(" (both: closest-candidate tie-break)")
	}
	fmt.Println()
	switch {
	case etr.RoundedUp && etr.CarriedK:
		fmt.Printf("  rounding          up, carry rippled into a new leading digit (K raised)\n")
	case etr.RoundedUp:
		fmt.Printf("  rounding          last digit incremented (round up)\n")
	default:
		fmt.Printf("  rounding          down (digits kept as generated)\n")
	}
	fmt.Printf("  result            0.%s x 10^%d (%d bignum ops)\n",
		digitString(res.Digits), res.K, etr.Ops)
	fmt.Println()
}

// digitString renders base-10 digit values as ASCII.
func digitString(digits []byte) string {
	b := make([]byte, len(digits))
	for i, d := range digits {
		b[i] = '0' + d
	}
	return string(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpinspect:", err)
	os.Exit(1)
}
