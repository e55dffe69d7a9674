package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"floatprint"
	"floatprint/batch"
	"floatprint/internal/core"
	"floatprint/internal/fastparse"
	"floatprint/internal/fastpath"
	"floatprint/internal/fpformat"
	"floatprint/internal/grisu"
	"floatprint/internal/reader"
	"floatprint/internal/ryu"
	"floatprint/interval"
)

const (
	ladderSample = 256 // ops per route or call kind in the ladder
	ladderReps   = 3   // interleaved passes per rung; the fastest counts
)

// rung times one layer's public entry point over a fixed sample.  A
// layer's self time is its rung minus the rung below on the same inputs.
type rung struct {
	name   string
	calls  int  // entry-point calls per pass
	values int  // values per pass, for per-value figures (0: per call)
	stats  bool // telemetry collection during the pass
	pass   func() bool
	best   time.Duration
	allocs uint64 // heap allocations of one pass
	fails  int
}

func (r *rung) ns() float64 {
	if r.values > 0 {
		return float64(r.best) / float64(r.values)
	}
	return float64(r.best) / float64(r.calls)
}

func (r *rung) nsPerCall() float64     { return float64(r.best) / float64(r.calls) }
func (r *rung) allocsPerCall() float64 { return float64(r.allocs) / float64(r.calls) }

// traced is the --trace 1 run: the workload's loop untraced and then with
// one client-side span per op, path shares from the telemetry counters,
// then the layer ladder.
func (e *env) traced(b *bench, d time.Duration, base time.Time, rep *report) (attempted, failed int64, err error) {
	// Untraced and traced halves alternate, so a slow stretch of the
	// machine does not land on one side of the overhead comparison.
	snap0 := floatprint.Snapshot()
	un, tr := &loopResult{}, &loopResult{}
	for i := 0; i < 2; i++ {
		un.merge(b.loop(d/4, false, base))
		tr.merge(b.loop(d/4, true, base))
	}
	delta := floatprint.Snapshot().Sub(snap0)
	convOps := un.ops + tr.ops
	if e.lib != nil {
		// lib-exact runs under library defaults, telemetry off; one pass
		// with it on shows which paths the pool takes.
		floatprint.SetStatsEnabled(true)
		s := floatprint.Snapshot()
		b.pass()
		delta = floatprint.Snapshot().Sub(s)
		floatprint.SetStatsEnabled(false)
		convOps = int64(len(b.meta))
	}
	attempted, failed = un.ops+tr.ops, un.fails+tr.fails

	untracedRate := un.medianOf(func(w window) float64 { return w.opsPerS })
	tracedRate := tr.medianOf(func(w window) float64 { return w.opsPerS })

	lad, err := e.ladder(base)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range lad.rungs {
		attempted++
		if r.fails > 0 {
			failed++
			fmt.Printf("ladder rung %s: %d passes with mismatches\n", r.name, r.fails)
		}
	}
	spansPath := fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", e.workload, e.seed)
	written, overwritten, err := writeSpans(spansPath)
	if err != nil {
		return 0, 0, err
	}
	fmt.Printf("spans: %d written to %s, %d older ones overwritten in the in-memory rings\n", written, spansPath, overwritten)

	rep.add("trace.ops_per_s_untraced", untracedRate, "1/s")
	rep.add("trace.ops_per_s_traced", tracedRate, "1/s")
	rep.add("trace.overhead_share", 1-quotient(tracedRate, untracedRate), "ratio")
	_, beyond := un.tail(0.99)
	rep.add("latency.samples", float64(un.all().n), "count")
	rep.add("latency.beyond_p99", float64(beyond), "count")
	rep.add("error_rate", float64(un.fails+tr.fails)/float64(max(un.ops+tr.ops, 1)), "ratio")
	rep.add("runtime.gc_cpu_fraction", un.gcCPU/math.Max(un.totalCPU, 1e-9), "ratio")
	rep.add("runtime.gc_cycles_per_kop", float64(un.gcCycles)/(float64(max(un.ops, 1))/1000), "count")
	rep.add("runtime.sched_wait_p99_us", un.schedWaitP99Secs*1e6, "us")
	rep.add("serve.shed_ratio", float64(e.sheds.Load())/float64(max(un.ops+tr.ops, 1)), "ratio")
	pathShares(rep, delta, convOps)
	lad.report(rep)
	return attempted, failed, nil
}

func ratio(a, b uint64) float64 { return quotient(float64(a), float64(b)) }

// quotient is a/b, or 0 when b is 0: a run too short to complete an op in
// some phase reports 0 rather than a NaN that JSON cannot carry.
func quotient(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pathShares reports which paths did the work, from telemetry deltas.
func pathShares(rep *report, s floatprint.Stats, ops int64) {
	rep.add("stats.ryu_hit_ratio", ratio(s.RyuHits, s.RyuHits+s.RyuMisses), "ratio")
	rep.add("stats.grisu_hit_ratio", ratio(s.GrisuHits, s.GrisuHits+s.GrisuMisses), "ratio")
	rep.add("stats.gay_hit_ratio", ratio(s.GayHits, s.GayHits+s.GayMisses), "ratio")
	rep.add("stats.parse_fast_hit_ratio", ratio(s.ParseFastHits, s.ParseFastHits+s.ParseFastMisses), "ratio")
	rep.add("stats.directed_ryu_hit_ratio", ratio(s.DirectedRyuHits, s.DirectedRyuHits+s.DirectedRyuMisses), "ratio")
	rep.add("stats.directed_fast_hit_ratio", ratio(s.DirectedFastHits, s.DirectedFastHits+s.DirectedFastMisses), "ratio")
	rep.add("stats.batch_parse_fallback_ratio", ratio(s.BatchParseFallbacks, s.BatchParseValues), "ratio")
	perOp := uint64(max(ops, 1))
	rep.add("stats.exact_free_per_op", ratio(s.ExactFree, perOp), "count")
	rep.add("stats.exact_fixed_per_op", ratio(s.ExactFixed, perOp), "count")
	rep.add("stats.parse_exact_per_op", ratio(s.ParseExact, perOp), "count")
	// A conversion is served by a fast path (a kernel hit, or a token the
	// block scanner certified) or by the exact core or reader.
	fast := s.RyuHits + s.GrisuHits + s.GayHits + s.ParseFastHits + s.DirectedRyuHits + s.DirectedFastHits +
		s.BatchParseValues - s.BatchParseFallbacks
	exact := s.ExactFree + s.ExactFixed + s.ParseExact
	rep.add("stats.fast_share", ratio(fast, fast+exact), "ratio")
	rep.add("stats.exact_share", ratio(exact, fast+exact), "ratio")
}

type ladder struct {
	rungs   []*rung
	byName  map[string]*rung
	speedup float64     // lib-exact ops/s on two goroutines / on one
	lib     *loopResult // the lib-exact loop on one goroutine
}

func (l *ladder) add(r *rung) {
	l.rungs = append(l.rungs, r)
	l.byName[r.name] = r
}

func (l *ladder) get(name string) *rung {
	r, ok := l.byName[name]
	if !ok {
		panic("perfbench: no ladder rung " + name)
	}
	return r
}

// ladder walks seeded samples of every workload's inputs down the
// layers: loopback, handler, batch/interval/root API, kernel, exact core.
// Each layer is reached through its own public entry point; rungs run
// interleaved, ladderReps times, and the fastest pass counts.
func (e *env) ladder(base time.Time) (*ladder, error) {
	single, bulk, lib := e.single, e.bulk, e.lib
	if single == nil {
		single = genSingle(e.seed, true)
	}
	if bulk == nil {
		bulk = genBulk(e.seed, true)
	}
	if lib == nil {
		lib = genLib(e.seed, true)
	}
	if e.srv == nil {
		if err := e.startServer(); err != nil {
			return nil, err
		}
	}
	lc, err := dial(e.srv.Addr())
	if err != nil {
		return nil, err
	}
	defer lc.close()
	h := e.srv.Handler()

	l := &ladder{byName: map[string]*rung{}}
	serveRungs(l, single, lc, h)
	bulkRungs(l, bulk, h)
	libRungs(l, lib)

	log := newSpanLog()
	root, rootStart := log.reserve(), time.Since(base)
	for rep := 0; rep < ladderReps; rep++ {
		for _, r := range l.rungs {
			floatprint.SetStatsEnabled(r.stats)
			start := time.Now()
			ok := r.pass()
			end := time.Now()
			log.add(r.name, root, start.Sub(base), end.Sub(base), nil)
			if !ok {
				r.fails++
			}
			if d := end.Sub(start); rep == 0 || d < r.best {
				r.best = d
			}
		}
	}
	var a, b runtime.MemStats
	for _, r := range l.rungs {
		floatprint.SetStatsEnabled(r.stats)
		runtime.ReadMemStats(&a)
		r.pass()
		runtime.ReadMemStats(&b)
		r.allocs = b.Mallocs - a.Mallocs
	}
	log.record(root, "ladder", 0, rootStart, time.Since(base), nil)

	// Two goroutines against one on the lib-exact pool, interleaved: how
	// the library scales across callers (shared pools, caches, counters).
	floatprint.SetStatsEnabled(false)
	one, two := &loopResult{}, &loopResult{}
	for i := 0; i < 2; i++ {
		one.merge(libBench(lib, 1).loop(time.Second, false, base))
		two.merge(libBench(lib, 2).loop(time.Second, false, base))
	}
	opsPerS := func(w window) float64 { return w.opsPerS }
	l.speedup = quotient(two.medianOf(opsPerS), one.medianOf(opsPerS))
	l.lib = one
	floatprint.SetStatsEnabled(e.lib == nil)
	return l, nil
}

// pick returns up to n ops of kind k from the pool.
func pick(ops []httpOp, k kind, n int) []*httpOp {
	var out []*httpOp
	for i := range ops {
		if ops[i].kind == k && len(out) < n {
			out = append(out, &ops[i])
		}
	}
	return out
}

var singleRoutes = [...]kind{kShortest, kParse, kInterval, kFixed}

// serveRungs covers the single-value routes: loopback round trip, the
// in-process handler, the root or interval API call the handler makes,
// and the kernels below it.
func serveRungs(l *ladder, pool []httpOp, lc *client, h http.Handler) {
	opts := &floatprint.Options{} // what the handlers build from an option-free query
	for _, k := range singleRoutes {
		sample := pick(pool, k, ladderSample)
		reqs := make([]*http.Request, len(sample))
		for i, op := range sample {
			reqs[i] = httptest.NewRequest(http.MethodGet, op.target, nil)
		}
		l.add(&rung{name: "loopback." + kindNames[k], calls: len(sample), stats: true, pass: func() bool {
			ok := true
			for _, op := range sample {
				status, body, err := lc.do(op.req)
				ok = ok && err == nil && status == http.StatusOK && bytes.Equal(body, op.want)
			}
			return ok
		}})
		l.add(&rung{name: "handler." + kindNames[k], calls: len(sample), stats: true, pass: func() bool {
			ok := true
			for i, op := range sample {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, reqs[i])
				ok = ok && rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), op.want)
			}
			return ok
		}})
		var buf []byte
		var api func(op *httpOp) ([]byte, error)
		switch k {
		case kShortest:
			api = func(op *httpOp) ([]byte, error) { return shortestAppend(buf[:0], op.v, opts) }
		case kParse:
			api = func(op *httpOp) ([]byte, error) {
				f, err := floatprint.Parse(op.text, opts)
				if err != nil {
					return nil, err
				}
				return shortestAppend(buf[:0], f, opts)
			}
		case kInterval:
			api = func(op *httpOp) ([]byte, error) {
				iv, err := interval.New(op.v, op.hi)
				if err != nil {
					return nil, err
				}
				return interval.AppendShortest(buf[:0], iv, opts)
			}
		default:
			api = func(op *httpOp) ([]byte, error) {
				d, err := floatprint.FixedDigits(op.v, op.n, opts)
				if err != nil {
					return nil, err
				}
				return d.Append(buf[:0], opts)
			}
		}
		l.add(&rung{name: "api." + kindNames[k], calls: len(sample), stats: true, pass: func() bool {
			ok := true
			for _, op := range sample {
				out, err := api(op)
				buf = out
				ok = ok && err == nil && bytes.Equal(out, op.want[:len(op.want)-1])
			}
			return ok
		}})
	}

	parses := pick(pool, kParse, ladderSample)
	l.add(&rung{name: "floatprint.parse", calls: len(parses), stats: true, pass: func() bool {
		ok := true
		for _, op := range parses {
			f, err := floatprint.Parse(op.text, nil)
			ok = ok && err == nil && f == op.v
		}
		return ok
	}})
	l.add(&rung{name: "fastparse.parse64", calls: len(parses), pass: func() bool {
		ok := true
		for _, op := range parses {
			f, _, hit := fastparse.Parse64(op.text)
			ok = ok && (!hit || f == op.v)
		}
		return ok
	}})

	intervals := pick(pool, kInterval, ladderSample)
	texts := make([]string, len(intervals))
	ends := make([][2]string, len(intervals))
	for i, op := range intervals {
		texts[i] = string(op.want[:len(op.want)-1])
		lo, hi, _ := strings.Cut(strings.Trim(texts[i], "[]"), ",")
		ends[i] = [2]string{lo, hi}
	}
	l.add(&rung{name: "interval.parse", calls: len(intervals), stats: true, pass: func() bool {
		ok := true
		for i, op := range intervals {
			iv, err := interval.Parse(texts[i], nil)
			ok = ok && err == nil && iv.Encloses(interval.Interval{Lo: op.v, Hi: op.hi})
		}
		return ok
	}})
	var kbuf [32]byte
	l.add(&rung{name: "ryu.directed_into", calls: 2 * len(intervals), pass: func() bool {
		// The interval layer's mapping: the lower endpoint rounds toward
		// -Inf, so its magnitude rounds up when it is negative.
		for _, op := range intervals {
			if op.v < 0 {
				ryu.ShortestAboveInto(kbuf[:], -op.v)
			} else {
				ryu.ShortestBelowInto(kbuf[:], op.v)
			}
			if op.hi < 0 {
				ryu.ShortestBelowInto(kbuf[:], -op.hi)
			} else {
				ryu.ShortestAboveInto(kbuf[:], op.hi)
			}
		}
		return true
	}})
	l.add(&rung{name: "fastparse.parse_directed64", calls: 2 * len(intervals), pass: func() bool {
		ok := true
		for i, op := range intervals {
			lo, _, hitLo := fastparse.ParseDirected64(ends[i][0], false)
			hi, _, hitHi := fastparse.ParseDirected64(ends[i][1], true)
			ok = ok && (!hitLo || lo <= op.v) && (!hitHi || hi >= op.hi)
		}
		return ok
	}})
	fixed := pick(pool, kFixed, ladderSample)
	l.add(&rung{name: "fastpath.try_fixed", calls: len(fixed), pass: func() bool {
		for _, op := range fixed {
			fastpath.TryFixed(math.Abs(op.v), op.n)
		}
		return true
	}})
}

func shortestAppend(dst []byte, v float64, opts *floatprint.Options) ([]byte, error) {
	d, err := floatprint.ShortestDigits(v, opts)
	if err != nil {
		return nil, err
	}
	return d.Append(dst, opts)
}

// bulkRungs covers the batch routes on one long and one short body: the
// handler, the batch engine under the server's pool configuration, the
// root append and batch-parse calls, the kernels, and the telemetry tax.
func bulkRungs(l *ladder, pool []httpOp, h http.Handler) {
	prints := []*httpOp{&pool[0], &pool[2]} // the first cycle's long and short body
	parses := []*httpOp{&pool[1], &pool[3]}
	values := len(prints) * bulkValues
	bp := batch.New(batch.Config{Sep: []byte{'\n'}}) // serve.New's pool
	ctx := context.Background()

	handler := func(ops []*httpOp, contentType string) func() bool {
		return func() bool {
			ok := true
			for _, op := range ops {
				req := httptest.NewRequest(http.MethodPost, op.target, bytes.NewReader(op.body))
				req.Header.Set("Content-Type", contentType)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				ok = ok && rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), op.want)
			}
			return ok
		}
	}
	l.add(&rung{name: "handler.batch", calls: len(prints), stats: true, pass: handler(prints, "application/octet-stream")})
	l.add(&rung{name: "handler.batch-parse", calls: len(parses), stats: true, pass: handler(parses, "application/x-ndjson")})

	writeAll := func() bool {
		ok := true
		for _, op := range prints {
			_, err := bp.WriteAll(ctx, op.values, io.Discard)
			ok = ok && err == nil
		}
		return ok
	}
	l.add(&rung{name: "batch.write_all", calls: len(prints), values: values, stats: true, pass: writeAll})
	l.add(&rung{name: "batch.parse_all", calls: len(parses), values: values, stats: true, pass: func() bool {
		ok := true
		for _, op := range parses {
			n, err := bp.ParseAll(ctx, bytes.NewReader(op.body), io.Discard)
			ok = ok && err == nil && n == bulkValues
		}
		return ok
	}})

	var buf []byte
	appendShortest := func() bool {
		ok := true
		for _, op := range prints {
			buf = buf[:0]
			for _, v := range op.values {
				buf = append(floatprint.AppendShortest(buf, v), '\n')
			}
			ok = ok && bytes.Equal(buf, op.want)
		}
		return ok
	}
	l.add(&rung{name: "floatprint.append_shortest", calls: values, values: values, stats: true, pass: appendShortest})
	var dst []float64
	l.add(&rung{name: "floatprint.append_parse_batch", calls: len(parses), values: values, stats: true, pass: func() bool {
		ok := true
		for _, op := range parses {
			var err error
			dst, err = floatprint.AppendParseBatch(dst[:0], op.body)
			ok = ok && err == nil && samePacked(dst, op.want)
		}
		return ok
	}})
	var kbuf [32]byte
	l.add(&rung{name: "ryu.shortest_into", calls: values, values: values, pass: func() bool {
		for _, op := range prints {
			for _, v := range op.values {
				if v != 0 {
					ryu.ShortestInto(kbuf[:], math.Abs(v))
				}
			}
		}
		return true
	}})
	l.add(&rung{name: "fastparse.parse_token64", calls: values, values: values, pass: func() bool {
		ok := true
		for _, op := range parses {
			b, i, idx := op.body, 0, 0
			for i < len(b) {
				for i < len(b) && fastparse.IsSep(b[i]) {
					i++
				}
				if i == len(b) {
					break
				}
				f, n, hit := fastparse.ParseToken64(b[i:])
				if !hit { // declined tokens go to the per-value parser, not timed here
					for n = 0; i+n < len(b) && !fastparse.IsSep(b[i+n]); n++ {
					}
				} else {
					ok = ok && f == op.values[idx]
				}
				i += n
				idx++
			}
		}
		return ok
	}})

	// Telemetry tax: the same calls with collection on and off.
	tax := prints[:1]
	taxWriteAll := func() bool {
		_, err := bp.WriteAll(ctx, tax[0].values, io.Discard)
		return err == nil
	}
	taxAppend := func() bool {
		buf = buf[:0]
		for _, v := range tax[0].values {
			buf = append(floatprint.AppendShortest(buf, v), '\n')
		}
		return bytes.Equal(buf, tax[0].want)
	}
	for _, on := range []bool{true, false} {
		suffix := map[bool]string{true: ".on", false: ".off"}[on]
		l.add(&rung{name: "tax.write_all" + suffix, calls: 1, values: bulkValues, stats: on, pass: taxWriteAll})
		l.add(&rung{name: "tax.append_shortest" + suffix, calls: bulkValues, values: bulkValues, stats: on, pass: taxAppend})
	}
}

func samePacked(vals []float64, packed []byte) bool {
	if len(packed) != 8*len(vals) {
		return false
	}
	for i, v := range vals {
		if binary.LittleEndian.Uint64(packed[8*i:]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// libRungs covers lib-exact: each call shape through the public API under
// library defaults (telemetry off), then Grisu3 and the exact core and
// reader called directly on the same inputs.
func libRungs(l *ladder, pool []libOp) {
	byKind := map[kind][]*libOp{}
	for i := range pool {
		op := &pool[i]
		if len(byKind[op.kind]) < ladderSample {
			byKind[op.kind] = append(byKind[op.kind], op)
		}
	}
	for k := kFormatModes; k <= kParseBases; k++ {
		sample := byKind[k]
		l.add(&rung{name: "floatprint." + kindNames[k], calls: len(sample), pass: func() bool {
			ok := true
			for _, op := range sample {
				ok = op.exec() && ok
			}
			return ok
		}})
	}
	var kbuf [32]byte
	modes := byKind[kFormatModes]
	l.add(&rung{name: "grisu.shortest_into", calls: len(modes), pass: func() bool {
		for _, op := range modes {
			grisu.ShortestInto(kbuf[:], math.Abs(op.v))
		}
		return true
	}})
	// The core takes decoded magnitudes; decoding happens here, untimed.
	decoded := func(ops []*libOp) []fpformat.Value {
		out := make([]fpformat.Value, len(ops))
		for i, op := range ops {
			out[i] = magnitude(op.v)
		}
		return out
	}
	coreRung := func(name string, ops []*libOp, call func(op *libOp, v fpformat.Value) error) {
		vals := decoded(ops)
		l.add(&rung{name: name, calls: len(ops), pass: func() bool {
			ok := true
			for i, op := range ops {
				ok = call(op, vals[i]) == nil && ok
			}
			return ok
		}})
	}
	coreRung("core.free_format_b10", byKind[kFormatExact], func(_ *libOp, v fpformat.Value) error {
		_, err := core.FreeFormat(v, 10, core.ScalingEstimate, core.ReaderNearestEven)
		return err
	})
	coreRung("core.free_format_bases", byKind[kFormatBases], func(op *libOp, v fpformat.Value) error {
		_, err := core.FreeFormat(v, op.base, core.ScalingEstimate, core.ReaderNearestEven)
		return err
	})
	coreRung("core.fixed_format_relative", byKind[kFormatFixed], func(op *libOp, v fpformat.Value) error {
		_, err := core.FixedFormatRelative(v, 10, core.ReaderNearestEven, op.n)
		return err
	})
	coreRung("core.fixed_format", byKind[kFormatFixedPos], func(op *libOp, v fpformat.Value) error {
		_, err := core.FixedFormat(v, 10, core.ReaderNearestEven, op.n)
		return err
	})
	parses := byKind[kParseBases]
	l.add(&rung{name: "reader.parse", calls: len(parses), pass: func() bool {
		ok := true
		for _, op := range parses {
			v, err := reader.Parse(op.text, op.base, fpformat.Binary64, reader.NearestEven)
			f, ferr := v.Float64()
			ok = ok && err == nil && ferr == nil && math.Float64bits(f) == op.wantBits
		}
		return ok
	}})
}

// report emits the per-layer metrics.  Serve figures are per request,
// batch and kernel figures per value where a call carries many values.
func (l *ladder) report(rep *report) {
	for _, k := range singleRoutes {
		name := kindNames[k]
		loop, hnd, api := l.get("loopback."+name), l.get("handler."+name), l.get("api."+name)
		rep.add("nethttp."+name+".self_us", (loop.nsPerCall()-hnd.nsPerCall())/1e3, "us")
		rep.add("serve."+name+".ns", hnd.nsPerCall(), "ns")
		rep.add("serve."+name+".allocs", hnd.allocsPerCall(), "count")
		rep.add("serve."+name+".self_ns", hnd.nsPerCall()-api.nsPerCall(), "ns")
	}
	for _, p := range [][2]string{{"batch", "batch.write_all"}, {"batch-parse", "batch.parse_all"}} {
		hnd, below := l.get("handler."+p[0]), l.get(p[1])
		rep.add("serve."+p[0]+".ns", hnd.nsPerCall(), "ns")
		rep.add("serve."+p[0]+".allocs", hnd.allocsPerCall(), "count")
		rep.add("serve."+p[0]+".self_ns", hnd.nsPerCall()-below.nsPerCall(), "ns")
	}
	for _, name := range []string{"batch.write_all", "batch.parse_all"} {
		r := l.get(name)
		rep.add(name+".ns_per_value", r.ns(), "ns")
		rep.add(name+".allocs", r.allocsPerCall(), "count")
	}
	for _, p := range [][2]string{
		{"interval.append_shortest", "api.interval"},
		{"interval.parse", "interval.parse"},
		{"floatprint.append_shortest", "floatprint.append_shortest"},
		{"floatprint.shortest_digits_append", "api.shortest"},
		{"floatprint.parse", "floatprint.parse"},
		{"floatprint.fixed_digits", "api.fixed"},
		{"floatprint.append_parse_batch", "floatprint.append_parse_batch"},
	} {
		r := l.get(p[1])
		rep.add(p[0]+".ns", r.ns(), "ns")
		rep.add(p[0]+".allocs", r.allocsPerCall(), "count")
	}
	for k := kFormatModes; k <= kParseBases; k++ {
		r := l.get("floatprint." + kindNames[k])
		rep.add(r.name+".ns", r.ns(), "ns")
		rep.add(r.name+".allocs", r.allocsPerCall(), "count")
	}
	for _, name := range []string{
		"ryu.shortest_into", "ryu.directed_into",
		"fastparse.parse64", "fastparse.parse_token64", "fastparse.parse_directed64",
		"grisu.shortest_into", "fastpath.try_fixed",
	} {
		rep.add(name+".ns", l.get(name).ns(), "ns")
	}
	for _, name := range []string{"core.free_format_b10", "core.free_format_bases", "core.fixed_format", "core.fixed_format_relative"} {
		r := l.get(name)
		rep.add(name+".ns", r.ns(), "ns")
		rep.add(name+".allocs", r.allocsPerCall(), "count")
	}
	rep.add("reader.parse.ns", l.get("reader.parse").ns(), "ns")
	rep.add("floatprint.parallel_speedup", l.speedup, "ratio")
	// Each lib-exact call shape's share of the workload's time, measured
	// in its own loop: the share of ops_per_s a change to that path moves.
	var total int64
	for k := kFormatModes; k <= kParseBases; k++ {
		total += l.lib.kindNs[k]
	}
	for k := kFormatModes; k <= kParseBases; k++ {
		name := "floatprint." + kindNames[k]
		rep.add(name+".time_share", quotient(float64(l.lib.kindNs[k]), float64(total)), "ratio")
		fmt.Printf("lib-exact %-34s %6.0f ns/call in the loop\n", name, quotient(float64(l.lib.kindNs[k]), float64(l.lib.kindOps[k])))
	}
	rep.add("stats.write_all_tax", float64(l.get("tax.write_all.on").best)/float64(l.get("tax.write_all.off").best), "ratio")
	rep.add("stats.append_shortest_tax", float64(l.get("tax.append_shortest.on").best)/float64(l.get("tax.append_shortest.off").best), "ratio")
}
