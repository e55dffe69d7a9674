package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"log"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"floatprint"
	"floatprint/internal/schryer"
)

// reusedWriter is a ResponseWriter that keeps nothing per request
// beyond its status: it reuses one header map and discards the body,
// and it supports read deadlines as net/http's own writer does, so an
// allocation count over it is the handler stack's alone.
type reusedWriter struct {
	header http.Header
	status int
}

func (w *reusedWriter) Header() http.Header { return w.header }

func (w *reusedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *reusedWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

func (w *reusedWriter) SetReadDeadline(time.Time) error { return nil }

// reset readies w for the next request.
func (w *reusedWriter) reset() {
	clear(w.header)
	w.status = 0
}

// postOp is one in-process POST that can be served again and again:
// its body rewinds to the same payload before every request.
type postOp struct {
	req     *http.Request
	body    *bytes.Reader
	payload []byte
}

func newPost(target, contentType string, payload []byte) *postOp {
	body := bytes.NewReader(payload)
	req := httptest.NewRequest(http.MethodPost, target, io.NopCloser(body))
	req.Header.Set("Content-Type", contentType)
	return &postOp{req: req, body: body, payload: payload}
}

// serve rewinds the body and runs the request through h into w.
func (op *postOp) serve(h http.Handler, w http.ResponseWriter) {
	op.body.Reset(op.payload)
	h.ServeHTTP(w, op.req)
}

// medianAllocBytes runs f n times and returns the median of the bytes
// each run allocated (runtime.MemStats.TotalAlloc).  A median, not a
// mean: under Go 1.22 and 1.23, where the idle pools are sync.Pools
// (internal/idle's fallback), a pool misses now and then (after two
// GCs, or when the goroutine moved to another P since its Put), and
// one miss costs a whole buffer.  CI's test jobs run those toolchains.
func medianAllocBytes(n int, f func()) uint64 {
	var ms runtime.MemStats
	per := make([]uint64, n)
	for i := range per {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		per[i] = ms.TotalAlloc - before
	}
	slices.Sort(per)
	return per[n/2]
}

// packedAndText renders values as a binary /v1/batch body (packed
// little-endian float64s) and as text in the batch grammar.
func packedAndText(values []float64) (packed, text []byte) {
	for _, v := range values {
		packed = binary.LittleEndian.AppendUint64(packed, math.Float64bits(v))
		text = append(strconv.AppendFloat(text, v, 'g', -1, 64), '\n')
	}
	return packed, text
}

// TestRequestAllocBudget pins what one single-value request allocates
// in process, through Handler as fpserved ships it: telemetry on, the
// access log on (to io.Discard), tracing off.  What is left is the
// record (which also holds the header values and the response line),
// the id string, the access-log record's spilled attribute and the
// conversion's digits: 4 on shortest and parse, 5 on fixed and
// interval.  A deadline context, a request clone, a query map and the
// response buffers took 18, 18, 20 and 20.
func TestRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	prev := floatprint.SetStatsEnabled(true)
	defer floatprint.SetStatsEnabled(prev)
	s := New(Config{
		Logger: log.New(io.Discard, "", 0),
		Slog:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	h := s.Handler()
	for _, c := range []struct {
		target string
		budget float64
	}{
		{"/v1/shortest?v=0.3", 5},
		{"/v1/parse?s=0.3", 5},
		{"/v1/fixed?v=3.14159&n=3", 5},
		{"/v1/interval?lo=0.1&hi=0.3", 5},
	} {
		req := httptest.NewRequest(http.MethodGet, c.target, nil)
		w := &reusedWriter{header: http.Header{}}
		n := testing.AllocsPerRun(200, func() {
			clear(w.header)
			w.status = 0
			h.ServeHTTP(w, req)
		})
		if w.status != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", c.target, w.status)
		}
		if n > c.budget {
			t.Errorf("GET %s: %v allocations per request, want at most %v", c.target, n, c.budget)
		}
	}
}

// TestBatchTextAllocBudget pins what a 65,536-value text body costs
// /v1/batch in process at two shards: the pool's parse engine reads it
// block by block into the same packed-value sink a binary body feeds, so
// the count is per request, not per value.
func TestBatchTextAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	h := New(Config{BatchShards: 2, Logger: log.New(io.Discard, "", 0)}).Handler()
	var payload []byte
	for _, v := range schryer.CorpusN(65536) {
		payload = append(strconv.AppendFloat(payload, v, 'g', -1, 64), '\n')
	}
	body := bytes.NewReader(payload)
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", io.NopCloser(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := &reusedWriter{header: http.Header{}}
	n := testing.AllocsPerRun(5, func() {
		body.Reset(payload)
		clear(w.header)
		w.status = 0
		h.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d, want 200", w.status)
	}
	if n > 150 {
		t.Errorf("POST /v1/batch, 65,536 text values: %v allocations per request, want at most 150", n)
	}
	t.Logf("%v allocations per request", n)
}

// TestBatchCycleBytesBudget pins what a serve-bulk-shaped cycle
// allocates in process at two shards: a long and a short 65,536-value
// body, each sent packed to /v1/batch and as text to /v1/batch-parse.
// The pool's parse states and chunk buffers, and the handlers' value
// blocks, held blocks and copy buffers, are reused across requests, so
// a warm cycle allocates per-request bookkeeping only: one parse state
// or value slab rebuilt per request would exceed the budget.
func TestBatchCycleBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	h := New(Config{BatchShards: 2, Logger: log.New(io.Discard, "", 0)}).Handler()
	short := make([]float64, 65536)
	for i := range short {
		short[i] = float64(i*7919%2_000_001-1_000_000) / 100
	}
	var cycle []*postOp
	for _, values := range [][]float64{schryer.CorpusN(65536), short} {
		packed, text := packedAndText(values)
		cycle = append(cycle,
			newPost("/v1/batch", "application/octet-stream", packed),
			newPost("/v1/batch-parse", "application/x-ndjson", text))
	}
	w := &reusedWriter{header: http.Header{}}
	run := func() {
		for _, op := range cycle {
			w.reset()
			op.serve(h, w)
			if w.status != http.StatusOK {
				t.Fatalf("POST %s = %d, want 200", op.req.URL.Path, w.status)
			}
		}
	}
	// One cycle fills every idle pool under Go 1.24.  Under the
	// sync.Pool fallback of Go 1.22 and 1.23, which CI's test jobs run,
	// each P keeps its own idle buffers and the GCs that the first
	// cycles' buffers set off empty the pools, so warming takes a few
	// cycles there.
	for range 5 {
		run()
	}
	const budget = 1 << 20
	got := medianAllocBytes(11, run)
	if got > budget {
		t.Errorf("serve-bulk cycle: %d bytes allocated, want at most %d", got, budget)
	}
	t.Logf("%d bytes per cycle", got)
}

// TestBatchOneValueBytesBudget pins what a one-value text body costs
// each batch route in process: the parse state, value block, chunk
// buffer and held block come from their pools, so a small body does not
// pay for a block-sized buffer (a parse state alone holds 1 MiB).
func TestBatchOneValueBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	h := New(Config{BatchShards: 2, Logger: log.New(io.Discard, "", 0)}).Handler()
	w := &reusedWriter{header: http.Header{}}
	for _, target := range []string{"/v1/batch", "/v1/batch-parse"} {
		op := newPost(target, "application/x-ndjson", []byte("0.3\n"))
		run := func() {
			w.reset()
			op.serve(h, w)
			if w.status != http.StatusOK {
				t.Fatalf("POST %s = %d, want 200", target, w.status)
			}
		}
		run()
		const budget = 16 << 10
		got := medianAllocBytes(101, run)
		if got > budget {
			t.Errorf("POST %s, one value: %d bytes allocated, want at most %d", target, got, budget)
		}
		t.Logf("POST %s, one value: %d bytes per request", target, got)
	}
}
