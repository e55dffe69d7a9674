// Command fpfuzz cross-checks every conversion implementation in this
// repository against the others and against Go's strconv, on structured
// random inputs designed to hit the hard cases: binade boundaries, decimal
// midpoints, denormals, and values with long shared digit prefixes.
//
// Implementations compared per value:
//
//	exact Burger-Dybvig (internal/core)  — the paper, big integers
//	basic §2 algorithm (rationals)       — sampled (slow)
//	decimal digit-walk (internal/decimal)— strconv-legacy approach
//	Grisu3 (internal/grisu)              — when certified
//	Ryū (internal/ryu)                   — always, ties rounded up
//	strconv.FormatFloat                  — reference
//	Parse / strconv.ParseFloat           — reading side
//
//	fpfuzz -n 200000 -seed 7 -basic-every 997
//
// Exit status 0 means every comparison agreed.  strconv alone rounds a
// final-digit tie to even where the paper rounds it up; such a tie is
// verified to be exactly halfway (decimal.Halfway) and counted, not
// failed.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"floatprint"
	"floatprint/internal/core"
	"floatprint/internal/decimal"
	"floatprint/internal/fpformat"
	"floatprint/internal/grisu"
	"floatprint/internal/ryu"
)

var (
	failures int
	ties     int
)

func main() {
	n := flag.Int("n", 100000, "values per generator class")
	seed := flag.Int64("seed", 1, "random seed")
	basicEvery := flag.Int("basic-every", 499, "check the rational reference every Nth value (0 = never)")
	flag.Parse()

	r := rand.New(rand.NewSource(*seed))
	classes := []struct {
		name string
		gen  func() float64
	}{
		{"uniform-bits", func() float64 {
			return math.Float64frombits(r.Uint64())
		}},
		{"binade-edges", func() float64 {
			be := uint64(1 + r.Intn(2046))
			mant := uint64(0)
			switch r.Intn(4) {
			case 0: // power of two (boundary case)
			case 1:
				mant = 1
			case 2:
				mant = 1<<52 - 1
			case 3:
				mant = uint64(r.Int63()) & (1<<52 - 1)
			}
			return math.Float64frombits(be<<52 | mant)
		}},
		{"denormals", func() float64 {
			return math.Float64frombits(uint64(r.Int63()) & (1<<52 - 1))
		}},
		{"decimal-neighbors", func() float64 {
			// A short decimal, then a few ulp steps away: values whose
			// shortest form is near a rounding boundary.
			d := float64(r.Intn(1_000_000_000))
			e := r.Intn(60) - 30
			v := d * math.Pow(10, float64(e))
			for s := r.Intn(5); s > 0; s-- {
				v = math.Nextafter(v, math.Inf(1))
			}
			return v
		}},
		{"long-prefixes", func() float64 {
			// Mantissas of the form 10…0 / 01…1 after random shifts create
			// long runs of 9s/0s in decimal.
			base := uint64(1) << uint(r.Intn(52))
			mant := (base - 1) ^ (uint64(r.Int63()) & 0xff)
			be := uint64(1 + r.Intn(2046))
			return math.Float64frombits(be<<52 | mant&(1<<52-1))
		}},
	}

	count := 0
	for _, class := range classes {
		for i := 0; i < *n; i++ {
			v := math.Abs(class.gen())
			if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
				continue
			}
			count++
			checkValue(v, *basicEvery > 0 && count%*basicEvery == 0)
		}
		fmt.Printf("  %-18s done\n", class.name)
	}

	fmt.Printf("fpfuzz: %d values, %d digit ties (strconv rounds them to even), %d failures\n",
		count, ties, failures)
	if failures > 0 {
		os.Exit(1)
	}
}

func checkValue(v float64, checkBasic bool) {
	val := fpformat.DecodeFloat64(v)

	exact, err := core.FreeFormat(val, 10, core.ScalingEstimate, core.ReaderNearestEven)
	if err != nil {
		report("core error", v, err.Error())
		return
	}
	exactStr := render(exact.Digits, exact.K)

	// Our Ryū must equal the exact Burger-Dybvig output byte for byte:
	// both round a final-digit tie up.  strconv (Ryū inside Go) rounds
	// such a tie to even, so it must agree everywhere else; a tie is
	// counted, and its strconv form must still round-trip.
	rd, rk, ok := ryu.Shortest(v)
	ryuStr := render(rd, rk)
	if !ok || ryuStr != exactStr {
		report("exact vs ryu", v, exactStr+" / "+ryuStr)
	}
	if scDigits, scK := strconvShortest(v); render(scDigits, scK) != ryuStr {
		if !decimal.Halfway(v, rd, rk) || !roundTrips(render(scDigits, scK), v) {
			report("ryu vs strconv", v, ryuStr+" / "+render(scDigits, scK))
		}
		ties++
	}

	// Grisu certified results must equal the exact output byte for byte.
	if gd, gk, ok := grisu.Shortest(v); ok {
		if render(gd, gk) != exactStr {
			report("grisu vs exact", v, render(gd, gk)+" / "+exactStr)
		}
	}

	// The decimal-walk implementation shares core's tie rule: exact match.
	if dd, dk := decimal.ShortestFloat64(v); render(dd, dk) != exactStr {
		report("decimal vs exact", v, render(dd, dk)+" / "+exactStr)
	}

	// Public API output parses back through both readers.
	s := floatprint.Shortest(v)
	if got, err := floatprint.Parse(s, nil); err != nil || got != v {
		report("public round-trip", v, s)
	}
	if got, err := strconv.ParseFloat(s, 64); err != nil || got != v {
		report("strconv reads ours", v, s)
	}
	if got, err := floatprint.Parse(strconv.FormatFloat(v, 'e', -1, 64), nil); err != nil || got != v {
		report("we read strconv", v, s)
	}

	// The §2 rational reference, sampled.
	if checkBasic {
		basic, err := core.BasicFreeFormat(val, 10, core.ReaderNearestEven)
		if err != nil {
			report("basic error", v, err.Error())
			return
		}
		if render(basic.Digits, basic.K) != exactStr {
			report("basic vs optimized", v, render(basic.Digits, basic.K)+" / "+exactStr)
		}
	}
}

func render(digits []byte, k int) string {
	var sb strings.Builder
	sb.WriteString("0.")
	for _, d := range digits {
		sb.WriteByte('0' + d)
	}
	sb.WriteString("e")
	sb.WriteString(strconv.Itoa(k))
	return sb.String()
}

func roundTrips(s string, v float64) bool {
	got, err := strconv.ParseFloat(s, 64)
	return err == nil && got == v
}

func strconvShortest(v float64) ([]byte, int) {
	s := strconv.FormatFloat(v, 'e', -1, 64)
	mant, expStr, _ := strings.Cut(s, "e")
	exp, _ := strconv.Atoi(expStr)
	t := strings.TrimRight(strings.Replace(mant, ".", "", 1), "0")
	if t == "" {
		t = "0"
	}
	digits := make([]byte, len(t))
	for i := 0; i < len(t); i++ {
		digits[i] = t[i] - '0'
	}
	return digits, exp + 1
}

func report(what string, v float64, detail string) {
	failures++
	if failures <= 25 {
		fmt.Fprintf(os.Stderr, "FAIL %-18s v=%x (%g): %s\n", what, math.Float64bits(v), v, detail)
	}
}
