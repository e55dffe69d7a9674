package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"floatprint"
	"floatprint/internal/span"
)

// getTraces fetches and decodes /debug/traces.
func getTraces(t *testing.T, url string) (int, struct {
	SampleEvery int           `json:"sample_every"`
	Total       uint64        `json:"total"`
	Traces      []*span.Trace `json:"traces"`
}) {
	t.Helper()
	var out struct {
		SampleEvery int           `json:"sample_every"`
		Total       uint64        `json:"total"`
		Traces      []*span.Trace `json:"traces"`
	}
	code, body := get(t, url)
	if code == http.StatusOK {
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("traces JSON: %v\n%s", err, body)
		}
	}
	return code, out
}

// TestTraceparentPropagation: an upstream W3C traceparent identity
// survives through the wrapper into the response header and the
// published trace — root span parented on the upstream span, handler
// children parented on the root, and the conversion span carrying the
// algorithm record.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 1})

	const upstreamTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const upstreamSpan = "00f067aa0ba902b7"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/shortest?v=0.3", nil)
	req.Header.Set("traceparent", "00-"+upstreamTrace+"-"+upstreamSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "0.3\n" {
		t.Fatalf("traced shortest = %d %q, want 200 \"0.3\\n\"", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != upstreamTrace {
		t.Fatalf("X-Trace-Id = %q, want adopted upstream id %q", got, upstreamTrace)
	}

	code, got := getTraces(t, ts.URL+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces = %d, want 200", code)
	}
	if got.SampleEvery != 1 || got.Total != 1 || len(got.Traces) != 1 {
		t.Fatalf("traces = sample_every=%d total=%d len=%d, want 1/1/1",
			got.SampleEvery, got.Total, len(got.Traces))
	}
	tr := got.Traces[0]
	if tr.TraceID != upstreamTrace || tr.Route != "/v1/shortest" || tr.Reason != "head" {
		t.Fatalf("trace = %+v, want upstream id, /v1/shortest, reason head", tr)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("got %d spans, want root + decode/convert/encode:\n%+v", len(tr.Spans), tr.Spans)
	}
	root := tr.Spans[0]
	if root.Name != "/v1/shortest" || root.ParentID != upstreamSpan || root.TraceID != upstreamTrace {
		t.Fatalf("root span = %+v, want route name parented on upstream span", root)
	}
	byName := map[string]span.Record{}
	for _, sp := range tr.Spans[1:] {
		byName[sp.Name] = sp
		if sp.ParentID != root.SpanID {
			t.Errorf("span %s parent = %q, want root %q", sp.Name, sp.ParentID, root.SpanID)
		}
		if sp.TraceID != upstreamTrace {
			t.Errorf("span %s trace = %q, want %q", sp.Name, sp.TraceID, upstreamTrace)
		}
	}
	for _, name := range []string{"decode", "convert", "encode"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing %s span in %+v", name, tr.Spans)
		}
	}
	attrs := map[string]string{}
	for _, a := range byName["convert"].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["backend"] == "" || attrs["digits"] != "1" ||
		!strings.HasPrefix(attrs["algorithm"], "backend=") {
		t.Errorf("convert span attrs = %v, want backend/digits/algorithm", attrs)
	}

	// Filters: a non-matching route yields an empty (non-null) list; a
	// bad min_ms is a 400, NaN included (it parses, but every comparison
	// with it is false, so it would silently filter nothing).
	if _, empty := getTraces(t, ts.URL+"/debug/traces?route=/v1/parse"); len(empty.Traces) != 0 {
		t.Errorf("route filter leaked %d traces", len(empty.Traces))
	}
	for _, bad := range []string{"bogus", "NaN", "nan"} {
		if code, _ := get(t, ts.URL+"/debug/traces?min_ms="+bad); code != http.StatusBadRequest {
			t.Errorf("min_ms=%s = %d, want 400", bad, code)
		}
	}
	if _, all := getTraces(t, ts.URL+"/debug/traces?route=/v1/shortest&min_ms=0"); len(all.Traces) != 1 {
		t.Errorf("matching filter returned %d traces, want 1", len(all.Traces))
	}
}

// TestTraceIDEchoOnErrors is the wrapper-ordering pin: the request id
// and trace id must come back on every error shape — 400s, 429 sheds,
// and panic 500s — because limited sets both headers before
// admission, timeout, or the handler run.
func TestTraceIDEchoOnErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceSample: 1, InFlight: 1, RequestTimeout: 30 * time.Second})

	checkIDs := func(t *testing.T, h http.Header, where string) {
		t.Helper()
		if h.Get("X-Request-Id") == "" {
			t.Errorf("%s: no X-Request-Id", where)
		}
		if len(h.Get("X-Trace-Id")) != 32 {
			t.Errorf("%s: X-Trace-Id = %q, want 32 hex digits", where, h.Get("X-Trace-Id"))
		}
	}

	// 400: malformed query.
	resp, err := http.Get(ts.URL + "/v1/shortest?v=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad value = %d, want 400", resp.StatusCode)
	}
	checkIDs(t, resp.Header, "400")

	// 429: hold the only slot, then get shed.
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		holder, herr := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", pr)
		if herr == nil {
			io.Copy(io.Discard, holder.Body)
			holder.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.inFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder request never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/v1/shortest?v=1.5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed = %d, want 429", resp.StatusCode)
	}
	checkIDs(t, resp.Header, "429")
	pw.Close()
	<-done
}

// TestPanicTraceAndHeaders drives a panicking handler through the full
// limited+recovered stack: the 500 carries both ids, and — with
// head sampling effectively off — the trace is still published, with
// reason "error" (retrospective capture).
func TestPanicTraceAndHeaders(t *testing.T) {
	s := New(Config{TraceSample: 1 << 30, TraceSeed: 42, Logger: log.New(io.Discard, "", 0)})
	mux := http.NewServeMux()
	mux.Handle("/boom", s.limited("/v1/shortest", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})))
	ts := httptest.NewServer(s.recovered(mux))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" || len(resp.Header.Get("X-Trace-Id")) != 32 {
		t.Fatalf("panic 500 headers = %v, want X-Request-Id and X-Trace-Id", resp.Header)
	}

	traces, _ := s.traceRing.Snapshot()
	if len(traces) != 1 || traces[0].Reason != "error" {
		t.Fatalf("trace ring after panic = %+v, want one trace with reason error", traces)
	}
	attrs := map[string]string{}
	for _, a := range traces[0].Spans[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["status"] != "500" {
		t.Fatalf("root span attrs = %v, want status=500", attrs)
	}

	// The converse: a healthy fast request under the same (effectively
	// never head-sampling) tracer must not publish.
	s2 := New(Config{TraceSample: 1 << 30, TraceSeed: 42, Logger: log.New(io.Discard, "", 0)})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if code, _ := get(t, ts2.URL+"/v1/shortest?v=0.3"); code != http.StatusOK {
		t.Fatal("healthy request failed")
	}
	if traces, _ := s2.traceRing.Snapshot(); len(traces) != 0 {
		t.Fatalf("fast 200 published a trace: %+v", traces)
	}
}

// TestTracedResponsesByteIdentical is the observability contract:
// turning tracing on must not change a single response byte on any
// endpoint, only add headers.
func TestTracedResponsesByteIdentical(t *testing.T) {
	_, off := newTestServer(t, Config{})
	_, on := newTestServer(t, Config{TraceSample: 1})

	fetch := func(t *testing.T, base, method, path, body string) (int, string, string) {
		t.Helper()
		var req *http.Request
		var err error
		if method == http.MethodPost {
			req, err = http.NewRequest(method, base+path, strings.NewReader(body))
		} else {
			req, err = http.NewRequest(method, base+path, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out), resp.Header.Get("Content-Type")
	}

	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodGet, "/v1/shortest?v=0.3", ""},
		{http.MethodGet, "/v1/shortest?v=1e23&mode=unknown", ""},
		{http.MethodGet, "/v1/shortest?v=0.1&bits=32", ""},
		{http.MethodGet, "/v1/shortest?v=bogus", ""},
		{http.MethodGet, "/v1/parse?s=1.25e-3", ""},
		{http.MethodGet, "/v1/interval?lo=0.1&hi=0.3", ""},
		{http.MethodGet, "/v1/fixed?v=3.14159&n=3", ""},
		{http.MethodGet, "/v1/fixed?v=100&pos=-2", ""},
		{http.MethodPost, "/v1/batch", "0.1\n0.2\n0.3\n"},
		{http.MethodPost, "/v1/batch-parse", "1.5,2.5\n"},
	} {
		codeOff, bodyOff, ctOff := fetch(t, off.URL, tc.method, tc.path, tc.body)
		codeOn, bodyOn, ctOn := fetch(t, on.URL, tc.method, tc.path, tc.body)
		if codeOff != codeOn || !bytes.Equal([]byte(bodyOff), []byte(bodyOn)) || ctOff != ctOn {
			t.Errorf("%s %s diverges traced vs untraced: (%d,%q,%s) vs (%d,%q,%s)",
				tc.method, tc.path, codeOff, bodyOff, ctOff, codeOn, bodyOn, ctOn)
		}
	}
}

// TestTracingMovesLibraryCountersAlike: the four single-value GET routes
// move every floatprint_* family of /metrics by the same amounts with
// tracing off and with every request traced.  A traced handler hands the
// library a record, and the library counts each event where it happens,
// so the record changes nothing a scrape sees.
func TestTracingMovesLibraryCountersAlike(t *testing.T) {
	prev := floatprint.SetStatsEnabled(true)
	defer floatprint.SetStatsEnabled(prev)
	paths := []string{
		"/v1/shortest?v=0.3&backend=exact",
		"/v1/fixed?v=0.1&pos=-30",
		"/v1/parse?s=1e23",
		"/v1/interval?lo=0.1&hi=0.3",
	}
	libraryCounters := func(t *testing.T, base string) map[string]uint64 {
		t.Helper()
		_, scrape := get(t, base+"/metrics")
		out := map[string]uint64{}
		for _, line := range strings.Split(scrape, "\n") {
			name, value, ok := strings.Cut(line, " ")
			if !ok || !strings.HasPrefix(name, "floatprint_") {
				continue
			}
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("bad sample %q", line)
			}
			out[name] = v
		}
		return out
	}

	var deltas [2]map[string]uint64
	for i, sample := range []int{0, 1} {
		_, ts := newTestServer(t, Config{TraceSample: sample})
		before := libraryCounters(t, ts.URL)
		for _, p := range paths {
			if code, body := get(t, ts.URL+p); code != http.StatusOK {
				t.Fatalf("TraceSample %d: GET %s = %d %q", sample, p, code, body)
			}
		}
		deltas[i] = libraryCounters(t, ts.URL)
		for name, v := range deltas[i] {
			deltas[i][name] = v - before[name]
		}
	}
	if !reflect.DeepEqual(deltas[0], deltas[1]) {
		t.Errorf("untraced requests moved %v\ntraced requests moved %v", deltas[0], deltas[1])
	}
	d := deltas[0]
	if est := d["floatprint_trace_estimates_total"]; est == 0 ||
		est != d["floatprint_exact_free_total"]+d["floatprint_exact_fixed_total"] {
		t.Errorf("trace_estimates moved %d, want one per exact print conversion: %v", est, d)
	}
}

// TestTracesEndpointGating: with neither tracing nor Debug there is no
// trace reader; either one mounts /debug/traces (tracing even when the
// pprof surface is off).
func TestTracesEndpointGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if code, _ := get(t, off.URL+"/debug/traces"); code != http.StatusNotFound {
		t.Errorf("tracing and Debug off: /debug/traces = %d, want 404", code)
	}
	_, on := newTestServer(t, Config{TraceSample: 1})
	if code, _ := get(t, on.URL+"/debug/traces"); code != http.StatusOK {
		t.Errorf("tracing on: /debug/traces = %d, want 200", code)
	}
	_, debug := newTestServer(t, Config{Debug: true})
	if code, _ := get(t, debug.URL+"/debug/traces"); code != http.StatusOK {
		t.Errorf("Debug on: /debug/traces = %d, want 200", code)
	}
}

// TestExemplarCarriesTraceID: with tracing on, a slow request's capture
// is its own trace, linked by the X-Trace-Id it answered with; no second,
// untraced capture is published.
func TestExemplarCarriesTraceID(t *testing.T) {
	_, ts := newTestServer(t, Config{Debug: true, SlowRequest: time.Nanosecond, TraceSample: 1})
	resp, err := http.Get(ts.URL + "/v1/shortest?v=0.3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := resp.Header.Get("X-Trace-Id")

	if _, got := getTraces(t, ts.URL+"/debug/traces"); got.Total != 1 || len(got.Traces) != 1 ||
		got.Traces[0].TraceID != want {
		t.Fatalf("traced slow request: total=%d traces=%+v, want its one trace %s",
			got.Total, got.Traces, want)
	}
}
