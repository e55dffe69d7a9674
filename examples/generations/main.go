// Generations: thirty years of shortest float printing in one program.
//
// Burger & Dybvig's 1996 algorithm defined the specification — the
// shortest string an accurate reader maps back to the same float — and
// every later algorithm implements the same contract faster:
//
//	1996  Burger & Dybvig   exact big-integer scaling (this repository's core)
//	2010  Grisu3            64-bit fixed point, certified or fall back
//	2018  Ryū               precomputed powers of five, total
//
// This example converts the same values through all of them (plus the
// strconv-legacy decimal digit-walk) and shows that the digits agree,
// then times a small batch.
//
//	go run ./examples/generations
package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"floatprint/internal/core"
	"floatprint/internal/decimal"
	"floatprint/internal/fpformat"
	"floatprint/internal/grisu"
	"floatprint/internal/ryu"
	"floatprint/internal/schryer"
)

func text(digits []byte, k int) string {
	var sb strings.Builder
	for i, d := range digits {
		if i == 1 {
			sb.WriteByte('.')
		}
		sb.WriteByte('0' + d)
	}
	sb.WriteString("e")
	sb.WriteString(strconv.Itoa(k - 1))
	return sb.String()
}

func main() {
	values := []float64{0.3, math.Pi, 1e23, 5e-324, 2.2250738585072011e-308}
	fmt.Printf("%-26s %-24s %-24s %-24s %-24s\n", "value", "Burger-Dybvig 1996", "decimal walk", "Grisu3 2010", "Ryu 2018")
	for _, v := range values {
		exact, err := core.FreeFormat(fpformat.DecodeFloat64(v), 10, core.ScalingEstimate, core.ReaderNearestEven)
		if err != nil {
			panic(err)
		}
		dd, dk := decimal.ShortestFloat64(v)
		gs := "(fallback)"
		if gd, gk, ok := grisu.Shortest(v); ok {
			gs = text(gd, gk)
		}
		rd, rk, _ := ryu.Shortest(v) // v > 0: never declines
		fmt.Printf("%-26g %-24s %-24s %-24s %-24s\n",
			v, text(exact.Digits, exact.K), text(dd, dk), gs, text(rd, rk))
	}

	fmt.Println("\ntiming 50,000 conversions (Schryer corpus):")
	corpus := schryer.CorpusN(50000)
	vals := make([]fpformat.Value, len(corpus))
	for i, f := range corpus {
		vals[i] = fpformat.DecodeFloat64(f)
	}

	start := time.Now()
	for _, v := range vals {
		if _, err := core.FreeFormat(v, 10, core.ScalingEstimate, core.ReaderNearestEven); err != nil {
			panic(err)
		}
	}
	tDragon := time.Since(start)

	start = time.Now()
	for _, f := range corpus {
		decimal.ShortestFloat64(f)
	}
	tDecimal := time.Since(start)

	start = time.Now()
	fallbacks := 0
	for i, f := range corpus {
		if _, _, ok := grisu.Shortest(f); !ok {
			fallbacks++
			if _, err := core.FreeFormat(vals[i], 10, core.ScalingEstimate, core.ReaderNearestEven); err != nil {
				panic(err)
			}
		}
	}
	tGrisu := time.Since(start)

	start = time.Now()
	for _, f := range corpus {
		ryu.Shortest(f) // decides every value: no exact fallback
	}
	tRyu := time.Since(start)

	fmt.Printf("  Burger-Dybvig exact:   %8v\n", tDragon.Round(time.Millisecond))
	fmt.Printf("  decimal digit-walk:    %8v\n", tDecimal.Round(time.Millisecond))
	fmt.Printf("  Grisu3 + fallback:     %8v   (%d fallbacks, %.2f%%)\n",
		tGrisu.Round(time.Millisecond), fallbacks, 100*float64(fallbacks)/float64(len(corpus)))
	fmt.Printf("  Ryu:                   %8v\n", tRyu.Round(time.Millisecond))
	fmt.Println("\nsame digits, three decades of speedups — the specification is the paper's.")
}
