package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"

	"floatprint"
	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/schryer"
)

// kind names one route (serve workloads) or one API call shape
// (lib-exact); per-kind figures in the traced run are keyed by it.
type kind int

const (
	kShortest kind = iota
	kParse
	kInterval
	kFixed
	kBatch
	kBatchParse
	kFormatModes
	kFormatBases
	kFormatExact
	kFormatFixed
	kFormatFixedPos
	kParseBases
	kCycle // a serve-bulk cycle of four requests
	numKinds
)

var kindNames = [numKinds]string{
	"shortest", "parse", "interval", "fixed", "batch", "batch-parse",
	"format_modes", "format_bases", "format_exact", "format_fixed", "format_fixed_position", "parse_bases",
	"cycle",
}

// parses reports whether ops of kind k read numbers, so that their time
// counts toward parse_mb_per_s rather than print_values_per_s.
func (k kind) parses() bool { return k == kParse || k == kBatchParse || k == kParseBases }

// opMeta is what the timing loop needs to know about one pool entry.
type opMeta struct {
	kind kind
	vals int // values printed
	in   int // input bytes parsed
}

const (
	singlePool = 4096  // serve-single requests
	bulkValues = 65536 // values per serve-bulk body
	bulkCycles = 4     // serve-bulk cycles, each one long and one short body
)

// libMix is the number of calls of each shape in the lib-exact pool.  The
// counts give every shape about the same share of the workload's time,
// so that a change to any one of the paths (reader modes, other bases,
// the exact core, the two fixed formats, base-B parsing) moves ops_per_s
// as much as a change of the same size to any other.  They are inversely
// proportional to each shape's cost per call in the workload's loop when
// the benchmark was defined (Go 1.24, 2 vCPUs): a reader-mode call, which
// Grisu3 serves, cost about a seventh of a call of any other shape, and
// those five were within 20% of each other.  The traced run reports the
// shares it measures as floatprint.<shape>.time_share.
var libMix = [...]struct {
	kind  kind
	calls int
}{
	{kFormatModes, 4816},
	{kFormatBases, 665},
	{kFormatExact, 758},
	{kFormatFixed, 656},
	{kFormatFixedPos, 658},
	{kParseBases, 639},
}

// Each workload draws from its own stream of the seed, so adding a
// workload never changes another's inputs.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// corpusValue draws a Schryer-corpus value with a random sign.
func corpusValue(r *rand.Rand, corpus []float64) float64 {
	v := corpus[r.IntN(len(corpus))]
	if r.IntN(2) == 0 {
		v = -v
	}
	return v
}

// httpOp is one serve request: the bytes sent, the body expected back,
// and the inputs it was built from (the traced run reuses them).
type httpOp struct {
	opMeta
	req    []byte
	target string // path and query, or the path of a POST
	want   []byte
	v, hi  float64 // value; interval endpoints are v and hi
	n      int     // significant digits for fixed
	text   string  // parse input
	body   []byte  // POST body
	values []float64
}

func getRequest(target string) []byte {
	return []byte("GET " + target + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")
}

func postRequest(path, contentType string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		path, contentType, len(body))
	return append([]byte(head), body...)
}

func queryFloat(v float64) string { return url.QueryEscape(strconv.FormatFloat(v, 'g', -1, 64)) }

// genSingle builds the serve-single pool: 60% /v1/shortest, 20% /v1/parse,
// 10% /v1/interval (lo & hi) and 10% /v1/fixed (n in 1..17).  Expected
// bodies come from the exact core when refs is set.
func genSingle(seed uint64, refs bool) []httpOp {
	r := newRand(seed, 1)
	corpus := schryer.Corpus()
	ops := make([]httpOp, singlePool)
	for i := range ops {
		op := &ops[i]
		op.v = corpusValue(r, corpus)
		switch p := r.IntN(10); {
		case p < 6:
			op.kind, op.vals = kShortest, 1
			op.target = "/v1/shortest?v=" + queryFloat(op.v)
		case p < 8:
			op.kind = kParse
			op.text = strconv.FormatFloat(op.v, 'e', 16, 64)
			op.in = len(op.text)
			op.target = "/v1/parse?s=" + url.QueryEscape(op.text)
		case p == 8:
			op.kind, op.vals = kInterval, 2
			w := corpusValue(r, corpus)
			op.v, op.hi = math.Min(op.v, w), math.Max(op.v, w)
			op.target = "/v1/interval?lo=" + queryFloat(op.v) + "&hi=" + queryFloat(op.hi)
		default:
			op.kind, op.vals = kFixed, 1
			op.n = 1 + r.IntN(17)
			op.target = "/v1/fixed?v=" + queryFloat(op.v) + "&n=" + strconv.Itoa(op.n)
		}
		op.req = getRequest(op.target)
		if refs {
			op.want = append(singleRef(op), '\n')
		}
	}
	return ops
}

var exactOpts = &floatprint.Options{Backend: floatprint.BackendExact}

// singleRef renders what the server must answer for op, by the exact core.
func singleRef(op *httpOp) []byte {
	switch op.kind {
	case kShortest, kParse:
		return exactShortest(nil, op.v)
	case kInterval:
		return exactInterval(op.v, op.hi)
	default:
		res, err := core.FixedFormatRelative(magnitude(op.v), 10, core.ReaderNearestEven, op.n)
		return render(res, err, op.v, 10, nil)
	}
}

func exactShortest(dst []byte, v float64) []byte {
	d, err := floatprint.ShortestDigits(v, exactOpts)
	if err != nil {
		panic(err)
	}
	out, err := d.Append(dst, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// exactInterval renders [lo, hi] with each endpoint from the exact core's
// one-sided loops, which BackendExact pins.
func exactInterval(lo, hi float64) []byte {
	below, err := floatprint.ShortestBelowDigits(lo, exactOpts)
	if err != nil {
		panic(err)
	}
	above, err := floatprint.ShortestAboveDigits(hi, exactOpts)
	if err != nil {
		panic(err)
	}
	out, _ := below.Append([]byte{'['}, nil)
	out, _ = above.Append(append(out, ','), nil)
	return append(out, ']')
}

func magnitude(v float64) fpformat.Value { return fpformat.DecodeFloat64(math.Abs(v)) }

// render turns a core result for v into the library's text form, the way
// the public API wraps the same digits.
func render(res core.Result, err error, v float64, base int, opts *floatprint.Options) []byte {
	if err != nil {
		panic(err)
	}
	class := floatprint.IsZero
	for _, d := range res.Digits {
		if d != 0 {
			class = floatprint.Finite
			break
		}
	}
	d := floatprint.Digits{Class: class, Neg: math.Signbit(v), Digits: res.Digits, K: res.K, NSig: res.NSig, Base: base}
	out, err := d.Append(nil, opts)
	if err != nil {
		panic(err)
	}
	return out
}

// genBulk builds the serve-bulk pool as bulkCycles cycles of four
// requests: a long body and a short body, each sent to /v1/batch (packed
// float64s in) and then to /v1/batch-parse (the values' NDJSON shortest
// renderings in).  The long bodies are consecutive slices of a seeded
// permutation of the whole Schryer corpus, so every seed carries the
// corpus's rare exact-path values in the same number; the short bodies
// are seeded integers / 100 (at most 6 significant digits).
func genBulk(seed uint64, refs bool) []httpOp {
	r := newRand(seed, 2)
	corpus := schryer.Corpus()
	perm := r.Perm(len(corpus))
	ops := make([]httpOp, 0, 4*bulkCycles)
	for c := 0; c < bulkCycles; c++ {
		for _, long := range []bool{true, false} {
			values := make([]float64, bulkValues)
			for i := range values {
				if long {
					values[i] = corpus[perm[(c*bulkValues+i)%len(perm)]]
					if r.IntN(2) == 0 {
						values[i] = -values[i]
					}
				} else {
					values[i] = float64(r.IntN(2_000_001)-1_000_000) / 100
				}
			}
			ops = append(ops, bulkPair(values, refs)...)
		}
	}
	return ops
}

// bulkPair returns the print and the parse request for one body.
func bulkPair(values []float64, refs bool) []httpOp {
	packed := make([]byte, 0, 8*len(values))
	var text []byte
	for _, v := range values {
		packed = binary.LittleEndian.AppendUint64(packed, math.Float64bits(v))
		text = append(strconv.AppendFloat(text, v, 'g', -1, 64), '\n')
	}
	pr := httpOp{opMeta: opMeta{kind: kBatch, vals: len(values)}, target: "/v1/batch", values: values}
	pr.req = postRequest(pr.target, "application/octet-stream", packed)
	pr.body = pr.req[len(pr.req)-len(packed):]
	ps := httpOp{opMeta: opMeta{kind: kBatchParse, in: len(text)}, target: "/v1/batch-parse", values: values}
	ps.req = postRequest(ps.target, "application/x-ndjson", text)
	ps.body = ps.req[len(ps.req)-len(text):]
	if refs {
		var want []byte
		for _, v := range values {
			want = append(exactShortest(want, v), '\n')
		}
		pr.want = want
		ps.want = packed
	}
	return []httpOp{pr, ps}
}

// libOp is one lib-exact call.
type libOp struct {
	opMeta
	v        float64
	n        int // digits (FormatFixed) or position (FormatFixedPosition)
	base     int
	opts     *floatprint.Options
	text     string // Parse input
	want     string
	wantBits uint64
}

var (
	libBases = [...]int{2, 3, 8, 16, 36}
	libModes = [...]floatprint.ReaderRounding{
		floatprint.ReaderUnknown, floatprint.ReaderNearestAway, floatprint.ReaderNearestTowardZero,
	}
	coreModes = map[floatprint.ReaderRounding]core.ReaderMode{
		floatprint.ReaderUnknown:           core.ReaderUnknown,
		floatprint.ReaderNearestAway:       core.ReaderNearestAway,
		floatprint.ReaderNearestTowardZero: core.ReaderNearestTowardZero,
	}
)

// genLib builds the lib-exact pool: libMix's calls of each shape, in a
// seeded order.  Every call bypasses the nearest-even fast paths: Format
// under the other reader modes (Grisu3 with exact fallback), in bases
// 2..36 and with BackendExact; FormatFixed at 1..40 digits;
// FormatFixedPosition at positions -40..0; Parse in bases 2..36.
// Free-format references and the Parse inputs come from
// core.BasicFreeFormat, the paper's section 2 rational algorithm, which
// shares no code with the timed paths; fixed-format references come from
// the exact core called directly, past the library's fast-path dispatch.
func genLib(seed uint64, refs bool) []libOp {
	r := newRand(seed, 3)
	corpus := schryer.Corpus()
	modeOpts := make([]*floatprint.Options, len(libModes))
	for i, m := range libModes {
		modeOpts[i] = &floatprint.Options{Reader: m}
	}
	baseOpts := make([]*floatprint.Options, len(libBases))
	for i, b := range libBases {
		baseOpts[i] = &floatprint.Options{Base: b}
	}
	var ops []libOp
	for _, mix := range libMix {
		for range mix.calls {
			op := libOp{opMeta: opMeta{kind: mix.kind, vals: 1}, v: corpusValue(r, corpus), base: 10}
			switch mix.kind {
			case kFormatModes:
				m := r.IntN(len(libModes))
				op.opts = modeOpts[m]
				if refs {
					op.want = basicText(op.v, 10, coreModes[libModes[m]], nil)
				}
			case kFormatBases:
				b := r.IntN(len(libBases))
				op.opts, op.base = baseOpts[b], libBases[b]
				if refs {
					op.want = basicText(op.v, op.base, core.ReaderNearestEven, op.opts)
				}
			case kFormatExact:
				op.opts = exactOpts
				if refs {
					op.want = basicText(op.v, 10, core.ReaderNearestEven, nil)
				}
			case kFormatFixed:
				op.n = 1 + r.IntN(40)
				if refs {
					res, err := core.FixedFormatRelative(magnitude(op.v), 10, core.ReaderNearestEven, op.n)
					op.want = string(render(res, err, op.v, 10, nil))
				}
			case kFormatFixedPos:
				op.n = -r.IntN(41)
				if refs {
					res, err := core.FixedFormat(magnitude(op.v), 10, core.ReaderNearestEven, op.n)
					op.want = string(render(res, err, op.v, 10, nil))
				}
			default:
				b := r.IntN(len(libBases))
				op.opts, op.base = baseOpts[b], libBases[b]
				op.vals = 0
				op.text = basicText(op.v, op.base, core.ReaderNearestEven, op.opts)
				op.in = len(op.text)
				op.wantBits = math.Float64bits(op.v)
			}
			ops = append(ops, op)
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// basicText renders v by the section 2 reference algorithm.
func basicText(v float64, base int, mode core.ReaderMode, opts *floatprint.Options) string {
	res, err := core.BasicFreeFormat(magnitude(v), base, mode)
	return string(render(res, err, v, base, opts))
}

func (op *libOp) exec() bool {
	switch op.kind {
	case kFormatFixed:
		s, err := floatprint.FormatFixed(op.v, op.n, op.opts)
		return err == nil && s == op.want
	case kFormatFixedPos:
		s, err := floatprint.FormatFixedPosition(op.v, op.n, op.opts)
		return err == nil && s == op.want
	case kParseBases:
		f, err := floatprint.Parse(op.text, op.opts)
		return err == nil && math.Float64bits(f) == op.wantBits
	default:
		s, err := floatprint.Format(op.v, op.opts)
		return err == nil && s == op.want
	}
}
