package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// bench is a workload ready to run: the metadata of its input pool and
// the function that executes pool entry i on worker w and reports whether
// the output matched its reference.
type bench struct {
	workers int
	meta    []opMeta
	do      func(w, i int, oc *opCtx) bool
	reqID   func(w int) []byte // request id of worker w's last op, or nil
	// classes is the number of latency classes when an op is several
	// requests that record their own latencies through opCtx.lat; when
	// it is 0, each op's latency is recorded as one class.
	classes int
}

// opCtx carries what an op that is itself several calls reports back: how
// its time divides between prints and parses, and, in a traced loop, one
// child span per call.
type opCtx struct {
	printNs, parseNs int64
	lat              []hist // the worker's per-class latencies
	spans            *spanLog
	parent           uint64
	base             time.Time
}

// child records one call of the current op as a child span.
func (oc *opCtx) child(name string, start, end time.Time, req []byte) {
	if oc.spans != nil {
		oc.spans.add(name, oc.parent, start.Sub(oc.base), end.Sub(oc.base), req)
	}
}

// worker holds one load goroutine's tallies.  Only that goroutine writes
// them; the sampler reads the atomics once per window.
type worker struct {
	ops, fails          atomic.Int64
	printNs, printVals  atomic.Int64
	parseNs, parseBytes atomic.Int64
	lastDone            atomic.Int64 // ns from loop start to the last completed op
	lat                 []hist
	kindOps, kindNs     [numKinds]int64 // ops of each kind and the time spent in them
	spans               *spanLog        // nil in untraced loops
}

// tally is the sum of the workers' counters at one instant.
type tally struct {
	ops, printNs, printVals, parseNs, parseBytes, lastDone int64
	cpu                                                    time.Duration
}

// window holds the rates of one sampling window.
type window struct {
	opsPerS, printValsPerS, parseMBPerS, cpuUsPerOp float64
}

type loopResult struct {
	ops, fails       int64
	lat              []hist // one per latency class
	kindOps, kindNs  [numKinds]int64
	windows          []window
	mallocs, allocB  uint64
	gcCPU, totalCPU  float64 // runtime CPU-class seconds over the loop
	gcCycles         uint64
	schedWaitP99Secs float64
}

// loop runs the workload closed-loop for d: each worker issues its next op
// only when the previous one has completed.  Rates are sampled in
// one-second windows so that one disturbed second moves one window, and
// the reported rate is the median window.
func (b *bench) loop(d time.Duration, traced bool, base time.Time) *loopResult {
	nwin := int(d / time.Second)
	if nwin < 1 {
		nwin = 1
	}
	win := d / time.Duration(nwin)
	ws := make([]*worker, b.workers)
	for i := range ws {
		ws[i] = &worker{lat: make([]hist, max(b.classes, 1))}
		if traced {
			ws[i].spans = newSpanLog()
		}
	}
	res := &loopResult{lat: make([]hist, max(b.classes, 1))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt0 := readRuntime()

	var stop atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	prev := tally{cpu: cpuTime()}
	for id, w := range ws {
		wg.Add(1)
		go func(id int, w *worker) {
			defer wg.Done()
			b.work(id, w, &stop, t0, base)
		}(id, w)
	}
	for k := 1; k <= nwin; k++ {
		time.Sleep(time.Until(t0.Add(time.Duration(k) * win)))
		cur := sum(ws)
		if wr, ok := rates(prev, cur); ok {
			res.windows = append(res.windows, wr)
		}
		prev = cur
	}
	stop.Store(true)
	wg.Wait()
	runtime.ReadMemStats(&after)
	rt1 := readRuntime()

	for _, w := range ws {
		res.ops += w.ops.Load()
		res.fails += w.fails.Load()
		for c := range res.lat {
			res.lat[c].merge(&w.lat[c])
		}
		for k := range w.kindNs {
			res.kindOps[k] += w.kindOps[k]
			res.kindNs[k] += w.kindNs[k]
		}
	}
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocB = after.TotalAlloc - before.TotalAlloc
	res.gcCPU = rt1[rtGCCPU].Value.Float64() - rt0[rtGCCPU].Value.Float64()
	res.totalCPU = rt1[rtTotalCPU].Value.Float64() - rt0[rtTotalCPU].Value.Float64()
	res.gcCycles = rt1[rtGCCycles].Value.Uint64() - rt0[rtGCCycles].Value.Uint64()
	res.schedWaitP99Secs = histDeltaQuantile(rt0[rtSched].Value.Float64Histogram(), rt1[rtSched].Value.Float64Histogram(), 0.99)
	return res
}

func (b *bench) work(id int, w *worker, stop *atomic.Bool, t0, base time.Time) {
	n := len(b.meta)
	oc := opCtx{lat: w.lat, spans: w.spans, base: base}
	for i := id; !stop.Load(); i += b.workers {
		j := i % n
		m := &b.meta[j]
		oc.printNs, oc.parseNs = 0, 0
		if w.spans != nil {
			oc.parent = w.spans.reserve()
		}
		start := time.Now()
		ok := b.do(id, j, &oc)
		end := time.Now()
		ns := int64(end.Sub(start))
		if b.classes == 0 {
			w.lat[0].record(ns)
		}
		w.kindOps[m.kind]++
		w.kindNs[m.kind] += ns
		switch {
		case oc.printNs+oc.parseNs > 0:
			w.printNs.Add(oc.printNs)
			w.parseNs.Add(oc.parseNs)
		case m.kind.parses():
			w.parseNs.Add(ns)
		default:
			w.printNs.Add(ns)
		}
		w.printVals.Add(int64(m.vals))
		w.parseBytes.Add(int64(m.in))
		if !ok {
			w.fails.Add(1)
		}
		w.ops.Add(1)
		w.lastDone.Store(int64(end.Sub(t0)))
		if w.spans != nil {
			var req []byte
			if b.reqID != nil && m.kind != kCycle {
				req = b.reqID(id)
			}
			w.spans.record(oc.parent, kindNames[m.kind], 0, start.Sub(base), end.Sub(base), req)
		}
	}
}

func sum(ws []*worker) tally {
	var t tally
	for _, w := range ws {
		t.ops += w.ops.Load()
		t.printNs += w.printNs.Load()
		t.printVals += w.printVals.Load()
		t.parseNs += w.parseNs.Load()
		t.parseBytes += w.parseBytes.Load()
		t.lastDone = max(t.lastDone, w.lastDone.Load())
	}
	t.cpu = cpuTime()
	return t
}

// rates turns two tallies into window rates.  Throughput is measured
// between the last completions seen at each sample, so a window that
// happens to cut a long request does not quantize the rate.
func rates(prev, cur tally) (window, bool) {
	ops := cur.ops - prev.ops
	dt := float64(cur.lastDone-prev.lastDone) / 1e9
	if ops <= 0 || dt <= 0 {
		return window{}, false
	}
	w := window{
		opsPerS:    float64(ops) / dt,
		cpuUsPerOp: float64(cur.cpu-prev.cpu) / 1e3 / float64(ops),
	}
	if ns := cur.printNs - prev.printNs; ns > 0 {
		w.printValsPerS = float64(cur.printVals-prev.printVals) / (float64(ns) / 1e9)
	}
	if ns := cur.parseNs - prev.parseNs; ns > 0 {
		w.parseMBPerS = float64(cur.parseBytes-prev.parseBytes) / 1e6 / (float64(ns) / 1e9)
	}
	return w, true
}

// merge folds another loop's results into r.  The scheduler-latency
// tail of the union is approximated by the larger of the two.
func (r *loopResult) merge(o *loopResult) {
	r.ops += o.ops
	r.fails += o.fails
	if r.lat == nil {
		r.lat = make([]hist, len(o.lat))
	}
	for c := range o.lat {
		r.lat[c].merge(&o.lat[c])
	}
	for k := range o.kindNs {
		r.kindOps[k] += o.kindOps[k]
		r.kindNs[k] += o.kindNs[k]
	}
	r.windows = append(r.windows, o.windows...)
	r.mallocs += o.mallocs
	r.allocB += o.allocB
	r.gcCPU += o.gcCPU
	r.totalCPU += o.totalCPU
	r.gcCycles += o.gcCycles
	r.schedWaitP99Secs = max(r.schedWaitP99Secs, o.schedWaitP99Secs)
}

// all returns the latencies of every class in one histogram.
func (r *loopResult) all() *hist {
	h := new(hist)
	for c := range r.lat {
		h.merge(&r.lat[c])
	}
	return h
}

// tail returns the q-quantile latency in nanoseconds over every latency
// sample of the loop, and the number of samples beyond its bucket.
func (r *loopResult) tail(q float64) (ns float64, beyond uint64) {
	h := r.all()
	return h.quantile(q), h.beyond(q)
}

// median returns the median latency in nanoseconds: of one op, or, where
// an op is several requests recorded in classes, the mean over the
// classes of each class's median.  Half of a serve-bulk cycle's requests
// are parses several times faster than any print, so the median of all
// its requests would fall in the gap between the two and jump with the
// slowest parse or the fastest print.
func (r *loopResult) median() float64 {
	var s float64
	for c := range r.lat {
		s += r.lat[c].quantile(0.5)
	}
	return s / float64(len(r.lat))
}

// medianOf returns the median of f over the windows where it is positive.
func (r *loopResult) medianOf(f func(window) float64) float64 {
	var xs []float64
	for _, w := range r.windows {
		if x := f(w); x > 0 {
			xs = append(xs, x)
		}
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	rtGCCPU = iota
	rtTotalCPU
	rtGCCycles
	rtSched
)

var rtNames = [...]string{
	rtGCCPU:    "/cpu/classes/gc/total:cpu-seconds",
	rtTotalCPU: "/cpu/classes/total:cpu-seconds",
	rtGCCycles: "/gc/cycles/total:gc-cycles",
	rtSched:    "/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, name := range rtNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// histDeltaQuantile returns the q-quantile of the samples a runtime
// histogram gained between two reads, as the upper edge of its bucket.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total) * q)
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum > rank {
			if math.IsInf(b.Buckets[i+1], 1) {
				return b.Buckets[i]
			}
			return b.Buckets[i+1]
		}
	}
	return 0
}
