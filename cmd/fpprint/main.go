// Command fpprint converts floating-point numbers using the Burger-Dybvig
// algorithms.  Each argument (or stdin line) is read as a base-10
// float64 with floatprint.Parse (the library's own grammar: '#' marks
// and '@' exponents read, hex floats and underscores do not) and
// reprinted.
//
//	fpprint 0.3 1e23                     shortest form
//	fpprint -base 16 255.5               shortest form in another base
//	fpprint -digits 10 1e23              fixed format, 10 significant digits
//	fpprint -pos -2 1234.5678            fixed format, stop at hundredths
//	fpprint -mode unknown 1e23           conservative reader assumption
//	fpprint -notation sci 1234.5         force scientific notation
//	fpprint -no-marks -digits 30 0.1     render insignificant digits as 0
//
// Fixed-format output uses '#' marks for digits beyond the value's
// precision, exactly as in the paper.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"

	"floatprint"
)

func main() {
	base := flag.Int("base", 10, "output base (2..36)")
	mode := flag.String("mode", "even", "reader rounding: even, unknown, away, zero")
	digits := flag.Int("digits", 0, "fixed format: significant digit count")
	pos := flag.String("pos", "", "fixed format: absolute digit position (e.g. -2)")
	notation := flag.String("notation", "auto", "auto, sci, pos")
	noMarks := flag.Bool("no-marks", false, "render insignificant digits as 0, not '#'")
	flag.Parse()

	opts := &floatprint.Options{Base: *base, NoMarks: *noMarks}
	switch *mode {
	case "even":
		opts.Reader = floatprint.ReaderNearestEven
	case "unknown":
		opts.Reader = floatprint.ReaderUnknown
	case "away":
		opts.Reader = floatprint.ReaderNearestAway
	case "zero":
		opts.Reader = floatprint.ReaderNearestTowardZero
	default:
		fatal(fmt.Errorf("unknown reader mode %q", *mode))
	}
	switch *notation {
	case "auto":
		opts.Notation = floatprint.NotationAuto
	case "sci":
		opts.Notation = floatprint.NotationScientific
	case "pos":
		opts.Notation = floatprint.NotationPositional
	default:
		fatal(fmt.Errorf("unknown notation %q", *notation))
	}

	convert := func(arg string) {
		v, err := floatprint.Parse(arg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpprint: %q: %v\n", arg, err)
			return
		}
		var out string
		switch {
		case *digits > 0:
			out, err = floatprint.FormatFixed(v, *digits, opts)
		case *pos != "":
			p, perr := strconv.Atoi(*pos)
			if perr != nil {
				fatal(fmt.Errorf("bad -pos %q: %v", *pos, perr))
			}
			out, err = floatprint.FormatFixedPosition(v, p, opts)
		default:
			out, err = floatprint.Format(v, opts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpprint: %q: %v\n", arg, err)
			return
		}
		fmt.Println(out)
	}

	if flag.NArg() > 0 {
		for _, arg := range flag.Args() {
			convert(arg)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			convert(line)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpprint:", err)
	os.Exit(1)
}
