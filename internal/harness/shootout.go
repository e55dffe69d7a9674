// The backend shootout: a head-to-head of the shortest-path backends plus
// Go's strconv over the same corpus, in the style of Gareau & Lemire's
// experimental review of shortest-decimal converters.  The default
// backend gets one row per nearest reader mode, since each mode is its
// own request shape for the dispatch.  Each contender runs the same
// append-style loop the serving and batch layers use, so the numbers
// measure the production path, not a stripped kernel.

package harness

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"floatprint"
)

// ShootoutRow is one contender's measurement: per-pass ns/op samples
// (medianable by the bench-JSON schema) and whether its output was
// verified byte-identical to the exact core.
type ShootoutRow struct {
	Name     string
	NsPerOp  []float64 // one sample per timed pass
	Median   float64
	Verified bool // byte-identical to BackendExact under the same mode
}

// shootoutContender is one row's driver: the options of its per-value
// append loop (nil for the strconv reference).
type shootoutContender struct {
	name string
	opts *floatprint.Options
}

// shootoutModes are the nearest reader modes, each a default-backend row.
var shootoutModes = []floatprint.ReaderRounding{
	floatprint.ReaderNearestEven, floatprint.ReaderUnknown,
	floatprint.ReaderNearestAway, floatprint.ReaderNearestTowardZero,
}

// RunShootout measures every contender over the corpus with `passes`
// timed passes each (after one warm-up), plus a verification pass
// pinning byte-identity of the floatprint rows against BackendExact
// under the row's reader mode.  The
// strconv row is Go's own Ryū via AppendFloat, the natural external
// reference.
func RunShootout(corpus []float64, passes int) ([]ShootoutRow, error) {
	if passes <= 0 {
		passes = 5
	}
	contenders := []shootoutContender{{"exact", &floatprint.Options{Backend: floatprint.BackendExact}}}
	for _, m := range shootoutModes {
		contenders = append(contenders, shootoutContender{"auto/" + m.String(), &floatprint.Options{Reader: m}})
	}
	contenders = append(contenders, shootoutContender{"strconv", nil})

	rows := make([]ShootoutRow, len(contenders))
	buf := make([]byte, 0, 64)
	runs := make([]func([]byte, float64) []byte, len(contenders))
	for ci, c := range contenders {
		rows[ci] = ShootoutRow{Name: c.name}
		opts := c.opts
		if opts == nil {
			runs[ci] = func(dst []byte, v float64) []byte {
				return strconv.AppendFloat(dst, v, 'g', -1, 64)
			}
		} else {
			runs[ci] = func(dst []byte, v float64) []byte {
				return floatprint.AppendShortestWith(dst, v, opts)
			}
		}

		// Verification pass (floatprint rows only: strconv's 'g'
		// rendering differs in shape, not digits, so it is not compared
		// byte-for-byte here — the differential tests own that).
		if c.opts != nil {
			exactOpts := &floatprint.Options{Reader: c.opts.Reader, Backend: floatprint.BackendExact}
			for _, v := range corpus {
				buf = runs[ci](buf[:0], v)
				ref := floatprint.AppendShortestWith(nil, v, exactOpts)
				if string(buf) != string(ref) {
					return nil, fmt.Errorf("shootout: %s diverges from exact for %g: %q vs %q",
						c.name, v, buf, ref)
				}
			}
			rows[ci].Verified = true
		}

		// Warm-up with collection off (also primes caches before timing).
		for _, v := range corpus {
			buf = runs[ci](buf[:0], v)
		}
	}

	// Timed passes, interleaved round-robin so slow machine-level drift
	// (frequency scaling, a noisy CI neighbor) lands on every contender
	// alike instead of biasing whichever ran last; a per-contender block
	// design can easily swing a head-to-head by 20% on shared runners.
	for p := 0; p < passes; p++ {
		for ci := range contenders {
			start := time.Now()
			for _, v := range corpus {
				buf = runs[ci](buf[:0], v)
			}
			elapsed := time.Since(start)
			rows[ci].NsPerOp = append(rows[ci].NsPerOp, float64(elapsed.Nanoseconds())/float64(len(corpus)))
		}
	}
	for ci := range rows {
		rows[ci].Median = median(rows[ci].NsPerOp)
	}
	return rows, nil
}

// RenderShootout renders the head-to-head as a table with each row's
// median ns/op and speed relative to the exact core.
func RenderShootout(rows []ShootoutRow, corpusSize, passes int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "backend shootout: %d values, best-of-%d medians (AppendShortest path)\n",
		corpusSize, passes)
	var exact float64
	for _, r := range rows {
		if r.Name == "exact" {
			exact = r.Median
		}
	}
	fmt.Fprintf(&sb, "  %-26s %12s %10s %10s\n", "backend", "ns/op", "vs exact", "verified")
	for _, r := range rows {
		rel := "-"
		if exact > 0 {
			rel = fmt.Sprintf("%.2fx", exact/r.Median)
		}
		verified := "-"
		if r.Verified {
			verified = "yes"
		}
		fmt.Fprintf(&sb, "  %-26s %12.1f %10s %10s\n", r.Name, r.Median, rel, verified)
	}
	return sb.String()
}
