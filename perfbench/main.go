// Command perfbench is the repository's benchmark.  It runs one seeded
// workload against the library and its HTTP front end, checks every
// output against a reference computed at set-up, and prints its metrics
// as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-single --seed 1996 --seconds 30 --trace 0
//
// Workloads (all load comes from this process, closed-loop):
//
//   - serve-single: one keep-alive connection sends single-value GETs to
//     an in-process serve.Server configured as cmd/fpserved ships it.
//     HTTP and the serve middleware do nearly all the work.
//   - serve-bulk: one connection sends cycles of four POSTs, a long and
//     a short body of 65,536 values each to /v1/batch and then to
//     /v1/batch-parse, so the batch engine, the root append/parse calls
//     and the kernels do the work.  An op is one cycle; its latency
//     figures are per request: p99 over all requests, p50 the mean of
//     the medians of the cycle's four request classes.
//   - lib-exact: one goroutine calls the public API with options that
//     bypass the nearest-even fast paths, so the exact core, the reader
//     and Grisu3 do the work.
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// repeats the workload with one client-side span per op (the difference is
// the tracing overhead), then walks seeded samples of every workload's
// inputs down the layers — loopback, handler, batch/interval/root API,
// kernel, exact core — and reports each layer's cost; spans are written
// to .bench_build/spans/ when the run ends.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"floatprint"
	"floatprint/serve"
)

// defaultSeed is the workload seed when --seed is not given.
const defaultSeed = 1996

// setupProbes is how many fresh processes measure set-up time per run;
// setup_s is their median.
const setupProbes = 7

var workloads = []string{"serve-single", "serve-bulk", "lib-exact"}

func main() {
	workload := flag.String("workload", "serve-single", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", defaultSeed, "seed every input is generated from")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	traceMode := flag.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs the traced, layer-by-layer run")
	probeT0 := flag.Int64("probe-t0", 0, "set up once and report the set-up time counted from this Unix time in ns (used by the benchmark itself)")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *traceMode)
		os.Exit(2)
	}
	if *probeT0 != 0 {
		if err := probe(*workload, *seed, time.Unix(0, *probeT0)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench probe:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in the order they are added, for the
// human-readable lines printed before the JSON.
type report struct {
	names   []string
	metrics map[string]metric
}

func (r *report) add(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{value, unit}
}

func run(workload string, seed uint64, d time.Duration, traced bool) error {
	base := time.Now()
	initMB := heapMB()
	fmt.Printf("perfbench workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s trace=%v\n",
		workload, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), traced)

	e := &env{workload: workload, seed: seed}
	t := time.Now()
	e.gen(true)
	fmt.Printf("inputs and references generated in %.2fs\n", time.Since(t).Seconds())

	var setupS float64
	if !traced {
		var err error
		if setupS, err = probeSetup(workload, seed); err != nil {
			return err
		}
	}
	// What the benchmark itself adds to the heap before set-up (inputs,
	// references, op metadata, client buffers) is subtracted from the
	// live heap at the end; the rest is the program's: its package-level
	// state and what set-up and the run left behind.
	b := e.bench()
	harnessMB := heapMB() - initMB
	if err := e.start(b); err != nil {
		return err
	}
	defer e.close()
	selfTest := e.selfTest(b)
	fmt.Printf("self-test: one reference corrupted, %d FAILURES counted (want 1)\n", selfTest)

	var rep report
	var attempted, failed int64
	var err error
	if traced {
		if attempted, failed, err = e.traced(b, d, base, &rep); err != nil {
			return err
		}
	} else {
		res := b.loop(d, false, base)
		attempted, failed = res.ops, res.fails
		endToEnd(&rep, res, setupS, harnessMB)
		runtime.KeepAlive(b) // its op metadata is part of harnessMB
	}
	for _, name := range rep.names {
		m := rep.metrics[name]
		fmt.Printf("  %-44s %16.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(result{
		Correct:   failed == 0 && selfTest == 1,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd derives the end-to-end metrics of an untraced loop.
// harnessMB is what the benchmark added to the heap before set-up.
func endToEnd(rep *report, res *loopResult, setupS, harnessMB float64) {
	ops := float64(max(res.ops, 1))
	rep.add("setup_s", setupS, "s")
	rep.add("ops_per_s", res.medianOf(func(w window) float64 { return w.opsPerS }), "1/s")
	p99, beyond := res.tail(0.99)
	rep.add("latency_p50_us", res.median()/1e3, "us")
	rep.add("latency_p99_us", p99/1e3, "us")
	rep.add("print_values_per_s", res.medianOf(func(w window) float64 { return w.printValsPerS }), "1/s")
	rep.add("parse_mb_per_s", res.medianOf(func(w window) float64 { return w.parseMBPerS }), "MB/s")
	rep.add("cpu_us_per_op", res.medianOf(func(w window) float64 { return w.cpuUsPerOp }), "us")
	rep.add("allocs_per_op", float64(res.mallocs)/ops, "count")
	rep.add("alloc_bytes_per_op", float64(res.allocB)/ops, "B")
	endMB := heapMB()
	rep.add("live_heap_mb", endMB-harnessMB, "MB")
	fmt.Printf("live heap: %.4f MB at the end, %.4f MB of it added by the benchmark before set-up\n", endMB, harnessMB)
	fmt.Printf("latency: %d samples, %d beyond p99; error rate %d/%d\n", res.all().n, beyond, res.fails, res.ops)
	if len(res.lat) > 1 {
		for c := range res.lat {
			h := &res.lat[c]
			fmt.Printf("latency class %d: %d samples, p50 %.1f us, p99 %.1f us\n", c, h.n, h.quantile(0.5)/1e3, h.quantile(0.99)/1e3)
		}
	}
	fmt.Print("ops/s by window:")
	for _, w := range res.windows {
		fmt.Printf(" %.4g", w.opsPerS)
	}
	fmt.Println()
}

// heapMB forces two collections, the second one clearing what the first
// left in sync.Pool victim caches, and returns the heap left in MB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// env is one workload's inputs and the server or goroutines that serve it.
type env struct {
	workload string
	seed     uint64
	single   []httpOp
	bulk     []httpOp
	lib      []libOp
	srv      *serve.Server
	served   chan error
	clients  []*client
	sheds    atomic.Int64
}

func (e *env) gen(refs bool) {
	switch e.workload {
	case "serve-single":
		e.single = genSingle(e.seed, refs)
	case "serve-bulk":
		e.bulk = genBulk(e.seed, refs)
	default:
		e.lib = genLib(e.seed, refs)
	}
}

// setup readies the workload.
func (e *env) setup() (*bench, error) {
	b := e.bench()
	return b, e.start(b)
}

// bench builds the workload's load generator: the op metadata and, for
// the serve workloads, unconnected clients.  It allocates only what the
// benchmark itself holds.
func (e *env) bench() *bench {
	var b *bench
	switch {
	case e.lib != nil:
		b = libBench(e.lib, 1)
	case e.single != nil:
		// One connection: with two on a 2-vCPU host, the two clients and
		// their two handlers contend for the CPUs, and the run-to-run
		// spread of latency and CPU per op measured the scheduler.
		e.newClients(1, e.single)
		b = &bench{workers: 1, meta: make([]opMeta, len(e.single))}
		for i := range e.single {
			b.meta[i] = e.single[i].opMeta
		}
		b.do = func(w, i int, _ *opCtx) bool { return e.exchange(w, &e.single[i]) }
	default:
		e.newClients(1, e.bulk)
		// Each request of a cycle is its own latency class, numbered by
		// its place in the cycle: long print, long parse, short print,
		// short parse.
		b = &bench{workers: 1, classes: 4, meta: make([]opMeta, len(e.bulk)/4)}
		for c := range b.meta {
			m := &b.meta[c]
			m.kind = kCycle
			for _, op := range e.bulk[4*c : 4*c+4] {
				m.vals += op.vals
				m.in += op.in
			}
		}
		b.do = func(w, c int, oc *opCtx) bool {
			ok := true
			for i := range 4 {
				op := &e.bulk[4*c+i]
				start := time.Now()
				ok = e.exchange(w, op) && ok
				end := time.Now()
				ns := int64(end.Sub(start))
				oc.lat[i].record(ns)
				if op.kind.parses() {
					oc.parseNs += ns
				} else {
					oc.printNs += ns
				}
				oc.child(kindNames[op.kind], start, end, e.clients[w].lastReqID())
			}
			return ok
		}
	}
	if e.clients != nil {
		b.reqID = func(w int) []byte { return e.clients[w].lastReqID() }
	}
	return b
}

// newClients makes n unconnected clients whose body buffers already hold
// the largest expected response, so that they do not grow once connected.
func (e *env) newClients(n int, ops []httpOp) {
	size := 0
	for i := range ops {
		size = max(size, len(ops[i].want))
	}
	for range n {
		e.clients = append(e.clients, newClient(size))
	}
}

// start starts what the workload runs against (the server and its
// connections for the serve workloads, library defaults for lib-exact)
// and makes one untimed pass over the input pool.
func (e *env) start(b *bench) error {
	if e.lib != nil {
		floatprint.SetStatsEnabled(false) // library default
	} else if err := e.startServer(); err != nil {
		return err
	}
	b.pass()
	return nil
}

// libBench runs the lib-exact pool on the given number of goroutines.
// The workload uses one: with two, the calls contend inside the library,
// and on a 2-vCPU host the run-to-run spread of ops/s grew from 2% to 14%.
// The traced run reports that contention as floatprint.parallel_speedup.
func libBench(ops []libOp, workers int) *bench {
	b := &bench{workers: workers, meta: make([]opMeta, len(ops))}
	for i := range ops {
		b.meta[i] = ops[i].opMeta
	}
	b.do = func(_, i int, _ *opCtx) bool { return ops[i].exec() }
	return b
}

// exchange sends op on connection w and reports whether the response is
// a 2xx carrying exactly the reference body.
func (e *env) exchange(w int, op *httpOp) bool {
	status, body, err := e.clients[w].do(op.req)
	if status == http.StatusTooManyRequests {
		e.sheds.Add(1)
	}
	return err == nil && status/100 == 2 && bytes.Equal(body, op.want)
}

// startServer starts an in-process server configured as cmd/fpserved
// ships it (telemetry on, a text access log, here to io.Discard, tracing
// off, default limits) and connects the workload's clients to it.
func (e *env) startServer() error {
	floatprint.SetStatsEnabled(true)
	e.srv = serve.New(serve.Config{
		Addr:   "127.0.0.1:0",
		Logger: log.New(io.Discard, "", 0),
		Slog:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err := e.srv.Listen(); err != nil {
		return err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve() }()
	for _, c := range e.clients {
		if err := c.connect(e.srv.Addr()); err != nil {
			return err
		}
	}
	return nil
}

// close stops the server and waits for it to exit.
func (e *env) close() {
	for _, c := range e.clients {
		c.close()
	}
	e.clients = nil
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
		}
		if err := <-e.served; err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server:", err)
		}
		e.srv = nil
	}
}

// pass runs every pool entry once, split across the workers, and returns
// the number of outputs that did not match their reference.
func (b *bench) pass() int64 {
	var fails atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			oc := opCtx{lat: make([]hist, max(b.classes, 1))}
			for i := w; i < len(b.meta); i += b.workers {
				if !b.do(w, i, &oc) {
					fails.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return fails.Load()
}

// selfTest corrupts the reference of pool entry 0, runs one verified pass
// and restores it.  A working verifier counts exactly one failure.
func (e *env) selfTest(b *bench) int64 {
	switch {
	case e.lib != nil:
		op := &e.lib[0]
		want, bits := op.want, op.wantBits
		op.want, op.wantBits = want+"?", bits^1
		defer func() { op.want, op.wantBits = want, bits }()
	default:
		ops := e.single
		if ops == nil {
			ops = e.bulk
		}
		ops[0].want[0] ^= 1
		defer func() { ops[0].want[0] ^= 1 }()
	}
	return b.pass()
}

// probe is one set-up measurement in a fresh process: the time from t0,
// taken by the parent just before starting this process, to the workload
// being ready after its warm-up pass, less the time spent generating the
// inputs.
func probe(workload string, seed uint64, t0 time.Time) error {
	e := &env{workload: workload, seed: seed}
	g := time.Now()
	e.gen(false)
	gen := time.Since(g)
	if _, err := e.setup(); err != nil {
		return err
	}
	setup := time.Since(t0) - gen
	e.close()
	fmt.Printf("setup_ns %d\n", setup.Nanoseconds())
	return nil
}

// probeSetup runs the set-up probes one after another and returns the
// median set-up time in seconds.
func probeSetup(workload string, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		t0 := time.Now().UnixNano()
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
			"--probe-t0", strconv.FormatInt(t0, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		f := strings.Fields(string(out))
		if len(f) != 2 || f[0] != "setup_ns" {
			return 0, fmt.Errorf("set-up probe: unexpected output %q", out)
		}
		ns, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		xs = append(xs, float64(ns)/1e9)
	}
	s := median(xs)
	fmt.Printf("set-up: %d probes, median %.4fs\n", len(xs), s)
	return s, nil
}
