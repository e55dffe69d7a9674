package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"floatprint"
	"floatprint/internal/schryer"
	"floatprint/internal/stats"
	"floatprint/interval"
)

// newTestServer boots a Server over a real listener (httptest) so
// streaming, deadlines, and connection aborts behave as in production.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestShortestEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		query, want string
	}{
		{"v=0.3", "0.3\n"},
		{"v=1e23", "1e23\n"},
		{"v=-0.25", "-0.25\n"},
		{"v=NaN", "NaN\n"},
		{"v=255.5&base=16", "ff.8\n"},
		{"v=1e23&mode=unknown", "9.999999999999999e22\n"},
		{"v=1234.5&notation=sci", "1.2345e3\n"},
		{"v=0.1&bits=32", "0.1\n"},
		{"v=0.1&bits=64", "0.1\n"},
		{"v=0.3&backend=auto", "0.3\n"},
		{"v=0.3&backend=exact", "0.3\n"},
	} {
		code, body := get(t, ts.URL+"/v1/shortest?"+tc.query)
		if code != http.StatusOK || body != tc.want {
			t.Errorf("shortest?%s = %d %q, want 200 %q", tc.query, code, body, tc.want)
		}
	}
	for _, q := range []string{
		"", "v=abc", "v=1&base=99", "v=1&mode=bogus", "v=1&notation=x", "v=1&nomarks=maybe",
		"v=0.3&backend=grisu", "v=0.3&backend=ryu", "v=0.1&bits=16", "v=0.1&bits=x",
	} {
		if code, _ := get(t, ts.URL+"/v1/shortest?"+q); code != http.StatusBadRequest {
			t.Errorf("shortest?%s = %d, want 400", q, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/shortest", "text/plain", strings.NewReader("1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST shortest = %d, want 405", resp.StatusCode)
	}
}

func TestParseEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		query, want string
	}{
		{"s=0.3", "0.3\n"},
		{"s=1e23", "1e23\n"},
		{"s=-2.5", "-2.5\n"},
		{"s=" + url.QueryEscape("100.000000000000000#####"), "100\n"},
		{"s=1e23&mode=unknown", "9.999999999999999e22\n"},
		{"s=ff.8&base=16", "ff.8\n"},
		{"s=1e999", "+Inf\n"},  // out of range keeps IEEE semantics
		{"s=-1e999", "-Inf\n"}, //
		{"s=0.1&bits=32", "0.1\n"},
		{"s=0.1&bits=64", "0.1\n"},
		{"s=1234.5&notation=sci", "1.2345e3\n"},
		{"s=%2Binf", "+Inf\n"},
		{"s=inf&base=36", "inf\n"}, // base 36: "inf" is a digit string (24171)
	} {
		code, body := get(t, ts.URL+"/v1/parse?"+tc.query)
		if code != http.StatusOK || body != tc.want {
			t.Errorf("parse?%s = %d %q, want 200 %q", tc.query, code, body, tc.want)
		}
	}
	for _, q := range []string{"", "s=bogus", "s=1..2", "s=1&base=99", "s=1&mode=bogus", "s=ff&base=10", "s=0.1&bits=16"} {
		if code, _ := get(t, ts.URL+"/v1/parse?"+q); code != http.StatusBadRequest {
			t.Errorf("parse?%s = %d, want 400", q, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/parse", "text/plain", strings.NewReader("1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/parse = %d, want 405", resp.StatusCode)
	}
}

func TestIntervalEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		query, want string
	}{
		// Print form: shortest decimal interval enclosing [lo, hi].
		{"lo=0.1&hi=0.3", "[0.1,0.3]\n"},
		{"lo=0.3&hi=0.3", "[0.29999999999999998,0.3]\n"},
		{"lo=-0&hi=0", "[-0,0]\n"},
		{"lo=1&hi=2&notation=sci", "[1e0,2e0]\n"},
		// Parse form: outward read, then the enclosing rendering of the
		// parsed endpoints.  Out-of-range endpoints widen, not fail.
		{"s=" + url.QueryEscape("[0.5,0.5]"), "[0.5,0.5]\n"},
		{"s=" + url.QueryEscape("[1e999,1e999]"), "[1.7976931348623157e308,+Inf]\n"},
		{"s=" + url.QueryEscape("[-Inf,+Inf]"), "[-Inf,+Inf]\n"},
	} {
		code, body := get(t, ts.URL+"/v1/interval?"+tc.query)
		if code != http.StatusOK || body != tc.want {
			t.Errorf("interval?%s = %d %q, want 200 %q", tc.query, code, body, tc.want)
		}
	}

	// The parse form's response must enclose what it parsed; pin the
	// inexact-endpoint case against the library's own contract.
	want, err := interval.Parse("[0.1,0.3]", nil)
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/v1/interval?s="+url.QueryEscape("[0.1,0.3]"))
	if code != http.StatusOK || body != want.String()+"\n" {
		t.Errorf("interval?s=[0.1,0.3] = %d %q, want 200 %q", code, body, want.String()+"\n")
	}
	echoed, err := interval.Parse(strings.TrimSuffix(body, "\n"), nil)
	if err != nil {
		t.Fatalf("response %q is not parseable interval text: %v", body, err)
	}
	if !echoed.Encloses(want) || !want.Contains(0.1) || !want.Contains(0.3) {
		t.Errorf("response %v does not enclose parsed %v", echoed, want)
	}

	for _, q := range []string{
		"", "lo=1", "hi=1", "lo=1&hi=2&s=%5B1,2%5D", // wrong form mix
		"lo=2&hi=1", "lo=NaN&hi=1", "lo=x&hi=1", // bad endpoints
		"s=%5B2,1%5D", "s=0.1", "s=%5B1;2%5D", "s=%5BNaN,1%5D", // bad text
		"lo=1&hi=2&base=99", "lo=1&hi=2&mode=bogus",
	} {
		if code, _ := get(t, ts.URL+"/v1/interval?"+q); code != http.StatusBadRequest {
			t.Errorf("interval?%s = %d, want 400", q, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/interval", "text/plain", strings.NewReader("1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/interval = %d, want 405", resp.StatusCode)
	}
}

// TestIntervalEndpointNonDecimalGuard pins the satellite guard at the
// service boundary: a /v1/interval request in a non-decimal base flows
// through optionsFromQuery into the library, where the static dispatch
// guards must route it to the exact one-sided core — the base-10
// directed kernels must never even be attempted, in either direction.  A kernel reached with base=16 would emit
// well-formed decimal garbage, so the telemetry is the test: zero
// directed attempts, nonzero exact work.
func TestIntervalEndpointNonDecimalGuard(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	floatprint.ResetStats()
	prev := floatprint.SetStatsEnabled(true)
	defer floatprint.SetStatsEnabled(prev)

	// Print form: 0.5 is exactly 0.8 in hex, its own one-sided bound.
	code, body := get(t, ts.URL+"/v1/interval?lo=0.5&hi=0.5&base=16")
	if code != http.StatusOK || body != "[0.8,0.8]\n" {
		t.Errorf("interval?lo=0.5&hi=0.5&base=16 = %d %q, want 200 %q", code, body, "[0.8,0.8]\n")
	}
	// Parse form: hex interval text read outward, re-rendered in hex.
	code, body = get(t, ts.URL+"/v1/interval?base=16&s="+url.QueryEscape("[0.8,0.8]"))
	if code != http.StatusOK || body != "[0.8,0.8]\n" {
		t.Errorf("interval?s=[0.8,0.8]&base=16 = %d %q, want 200 %q", code, body, "[0.8,0.8]\n")
	}

	d := floatprint.Snapshot()
	if d.DirectedRyuHits != 0 {
		t.Errorf("base-16 interval requests reached the directed print kernels: hits=%d", d.DirectedRyuHits)
	}
	if d.DirectedFastHits+d.DirectedFastMisses != 0 {
		t.Errorf("base-16 interval requests reached the directed parse fast path: hits=%d misses=%d",
			d.DirectedFastHits, d.DirectedFastMisses)
	}
	if d.ExactFree == 0 || d.ParseExact == 0 {
		t.Errorf("base-16 interval requests did not run the exact paths: %+v", d)
	}

	// The complementary pin: the same requests in base 10 do use the
	// directed fast paths end to end.
	floatprint.ResetStats()
	get(t, ts.URL+"/v1/interval?lo=0.1&hi=0.3")
	get(t, ts.URL+"/v1/interval?s="+url.QueryEscape("[0.1,0.3]"))
	d = floatprint.Snapshot()
	if d.DirectedRyuHits == 0 {
		t.Errorf("base-10 interval print did not use the directed kernels: %+v", d)
	}
	if d.DirectedFastHits == 0 {
		t.Errorf("base-10 interval parse did not use the directed fast path: %+v", d)
	}
}

func TestFixedEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		query, want string
	}{
		{"v=3.14159&n=3", "3.14\n"},
		{"v=100&pos=-2", "100.00\n"},
		{"v=0.1&n=20", "0.10000000000000000###\n"},
		{"v=0.1&n=20&nomarks=1", "0.10000000000000000000\n"},
		{"v=0.1&n=10&bits=32", "0.100000000#\n"},
		{"v=0.1&n=12&bits=64", "0.100000000000\n"},
		{"v=0.1&pos=-12&bits=64", "0.100000000000\n"},
	} {
		code, body := get(t, ts.URL+"/v1/fixed?"+tc.query)
		if code != http.StatusOK || body != tc.want {
			t.Errorf("fixed?%s = %d %q, want 200 %q", tc.query, code, body, tc.want)
		}
	}
	for _, q := range []string{
		"v=1", "v=1&n=3&pos=2", "v=1&n=abc", "v=1&n=0", "v=1&pos=x",
		"v=0.1&n=12&bits=16", "v=0.1&pos=-12&bits=16", "v=0.1&pos=-12&bits=32",
	} {
		if code, _ := get(t, ts.URL+"/v1/fixed?"+q); code != http.StatusBadRequest {
			t.Errorf("fixed?%s = %d, want 400", q, code)
		}
	}
	if _, body := get(t, ts.URL+"/v1/fixed?v=0.1&n=12&bits=16"); !strings.Contains(body, `bad bits "16" (want 32, 64)`) {
		t.Errorf("fixed?v=0.1&n=12&bits=16 error %q does not name the bad bits", body)
	}
}

// TestFixedEndpointCap pins the MaxFixedPositions bound on /v1/fixed:
// the limit itself is served, and one past it in either direction is a
// 400 that names the limit (a negative n is the library's own 400), for
// both value widths.  pos takes no bits=32, so there every pos is a 400,
// and the cap is still checked first.
func TestFixedEndpointCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, bits := range []string{"64", "32"} {
		for _, tc := range []struct {
			query    string
			code     int
			capError bool
		}{
			{"n=1100", http.StatusOK, false},
			{"n=1101", http.StatusBadRequest, true},
			{"n=-1101", http.StatusBadRequest, false},
			{"pos=1100", http.StatusOK, false},
			{"pos=-1100", http.StatusOK, false},
			{"pos=1101", http.StatusBadRequest, true},
			{"pos=-1101", http.StatusBadRequest, true},
		} {
			q := "v=0.1&bits=" + bits + "&" + tc.query
			want := tc.code
			if bits == "32" && strings.HasPrefix(tc.query, "pos=") {
				want = http.StatusBadRequest
			}
			code, body := get(t, ts.URL+"/v1/fixed?"+q)
			if code != want {
				t.Errorf("fixed?%s = %d, want %d", q, code, want)
			}
			if tc.capError && !strings.Contains(body, "1100") {
				t.Errorf("fixed?%s error %q does not name the limit", q, body)
			}
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

// wantNDJSON is the reference byte stream a batch response must equal:
// AppendShortest per value, newline-terminated — the batch package's
// own byte-identity invariant carried over the wire.
func wantNDJSON(values []float64) []byte {
	buf := make([]byte, 0, len(values)*24)
	for _, v := range values {
		buf = floatprint.AppendShortest(buf, v)
		buf = append(buf, '\n')
	}
	return buf
}

func postBatch(t *testing.T, url, contentType string, body io.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", contentType, body)
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read batch response: %v", err)
	}
	return resp.StatusCode, out
}

func TestBatchNDJSONByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	values := schryer.CorpusN(10000)
	var in bytes.Buffer
	for i, v := range values {
		if i%3 == 1 {
			v = -v
			values[i] = v
		}
		fmt.Fprintf(&in, "%s\n", strconv.FormatFloat(v, 'g', -1, 64))
	}
	code, out := postBatch(t, ts.URL, "application/x-ndjson", &in)
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, out)
	}
	if want := wantNDJSON(values); !bytes.Equal(out, want) {
		t.Fatalf("batch response differs from per-value AppendShortest (%d vs %d bytes)", len(out), len(want))
	}
}

func TestBatchBinary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	values := append(schryer.CorpusN(3000), math.NaN(), math.Inf(1), math.Copysign(0, -1))
	in := make([]byte, 8*len(values))
	for i, v := range values {
		binary.LittleEndian.PutUint64(in[8*i:], math.Float64bits(v))
	}
	code, out := postBatch(t, ts.URL, "application/octet-stream", bytes.NewReader(in))
	if code != http.StatusOK {
		t.Fatalf("binary batch = %d: %s", code, out)
	}
	if want := wantNDJSON(values); !bytes.Equal(out, want) {
		t.Fatalf("binary batch response differs from per-value AppendShortest")
	}

	code, out = postBatch(t, ts.URL, "application/octet-stream", bytes.NewReader(in[:17]))
	if code != http.StatusBadRequest {
		t.Fatalf("truncated binary batch = %d %q, want 400", code, out)
	}
}

func TestBatchEmptyAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, out := postBatch(t, ts.URL, "application/x-ndjson", strings.NewReader(""))
	if code != http.StatusOK || len(out) != 0 {
		t.Fatalf("empty batch = %d %q, want 200 empty", code, out)
	}
	code, _ = postBatch(t, ts.URL, "application/x-ndjson", strings.NewReader("1.5\nnot-a-number\n"))
	if code != http.StatusBadRequest {
		t.Fatalf("bad line batch = %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch = %d, want 405", resp.StatusCode)
	}
}

// TestBatchAbortAfterStreamStart pins the honesty contract: an input
// error after output has started must break the connection, not end a
// 200 stream early as if the response were complete.
func TestBatchAbortAfterStreamStart(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var in bytes.Buffer
	for i := 0; i < batchBlockValues+10; i++ {
		in.WriteString("1.5\n")
	}
	in.WriteString("garbage\n")
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", &in)
	if err == nil {
		defer resp.Body.Close()
		if _, rerr := io.ReadAll(resp.Body); rerr == nil {
			t.Fatal("mid-stream input error produced a clean response, want aborted connection")
		}
	}
}

// TestBatchBodyCap checks MaxBatchBytes produces 413, not unbounded
// buffering.
func TestBatchBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchBytes: 64})
	code, _ := postBatch(t, ts.URL, "application/x-ndjson",
		strings.NewReader(strings.Repeat("1.25\n", 1000)))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch = %d, want 413", code)
	}
}

func postBatchParse(t *testing.T, url string, body io.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch-parse", "text/plain", body)
	if err != nil {
		t.Fatalf("POST /v1/batch-parse: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read batch-parse response: %v", err)
	}
	return resp.StatusCode, out
}

// TestBatchParseRoundTrip is the endpoint's bit-identity contract: the
// packed little-endian output decodes to exactly the floats whose
// shortest renderings went in, value for value, in input order.
func TestBatchParseRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	values := schryer.CorpusN(10000)
	for i := range values {
		if i%3 == 1 {
			values[i] = -values[i]
		}
	}
	code, out := postBatchParse(t, ts.URL, bytes.NewReader(wantNDJSON(values)))
	if code != http.StatusOK {
		t.Fatalf("batch-parse = %d, want 200", code)
	}
	if len(out) != 8*len(values) {
		t.Fatalf("got %d output bytes, want %d", len(out), 8*len(values))
	}
	for i, v := range values {
		got := binary.LittleEndian.Uint64(out[8*i:])
		if got != math.Float64bits(v) {
			t.Fatalf("value %d: got bits %#x, want %#x (%v)", i, got, math.Float64bits(v), v)
		}
	}
}

// TestBatchParseGrammarAndErrors covers the pre-stream error mapping
// and the small-response shapes: empty input is a committed empty
// octet-stream, mixed separators parse as one stream, out-of-range
// tokens follow IEEE semantics, malformed tokens are located 400s, and
// non-POST methods are 405.
func TestBatchParseGrammarAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/batch-parse", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("empty input = %d with %d bytes, want empty 200", resp.StatusCode, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("empty input Content-Type = %q, want octet-stream", ct)
	}

	code, out := postBatchParse(t, ts.URL, strings.NewReader("1.5, 2.5\r\n1e999\t-0\n"))
	if code != http.StatusOK || len(out) != 32 {
		t.Fatalf("mixed separators = %d with %d bytes, want 200 with 32", code, len(out))
	}
	for i, want := range []float64{1.5, 2.5, math.Inf(1), math.Copysign(0, -1)} {
		if got := binary.LittleEndian.Uint64(out[8*i:]); got != math.Float64bits(want) {
			t.Fatalf("value %d: got bits %#x, want %v", i, got, want)
		}
	}

	code, out = postBatchParse(t, ts.URL, strings.NewReader("1.5\nbogus\n2.5\n"))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed token = %d, want 400", code)
	}
	if !strings.Contains(string(out), "record 1") || !strings.Contains(string(out), "byte offset 4") {
		t.Fatalf("malformed-token body %q lacks record/offset coordinates", out)
	}

	resp, err = http.Get(ts.URL + "/v1/batch-parse")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch-parse = %d, want 405", resp.StatusCode)
	}
}

// TestBatchParseAbortAfterStreamStart pins the same honesty contract
// as /v1/batch: once packed output has started streaming, a malformed
// token must abort the connection rather than truncate a 200.
func TestBatchParseAbortAfterStreamStart(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var in bytes.Buffer
	// The parse engine cuts blocks at 1 MiB of input; two blocks' worth
	// of good values guarantees output is committed before the garbage.
	for in.Len() < 2<<20 {
		in.WriteString("1.5\n2.25\n-3e5\n")
	}
	in.WriteString("garbage\n")
	resp, err := http.Post(ts.URL+"/v1/batch-parse", "text/plain", &in)
	if err == nil {
		defer resp.Body.Close()
		if _, rerr := io.ReadAll(resp.Body); rerr == nil {
			t.Fatal("mid-stream parse error produced a clean response, want aborted connection")
		}
	}
}

// TestBatchParseBodyCap checks MaxBatchBytes guards the parse side too.
func TestBatchParseBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchBytes: 64})
	code, _ := postBatchParse(t, ts.URL, strings.NewReader(strings.Repeat("1.25\n", 1000)))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch-parse = %d, want 413", code)
	}
}

// TestBatchParseMetrics checks the new engine counters surface in the
// /metrics scrape after traffic.
func TestBatchParseMetrics(t *testing.T) {
	floatprint.ResetStats()
	prev := floatprint.SetStatsEnabled(true)
	defer floatprint.SetStatsEnabled(prev)
	_, ts := newTestServer(t, Config{})
	code, _ := postBatchParse(t, ts.URL, strings.NewReader("1.5\n2.5\n3.5\n"))
	if code != http.StatusOK {
		t.Fatalf("batch-parse = %d, want 200", code)
	}
	_, scrape := get(t, ts.URL+"/metrics")
	if got := metricValue(t, scrape, "floatprint_batch_parse_values_total"); got != 3 {
		t.Fatalf("batch_parse_values_total = %d, want 3", got)
	}
	if got := metricValue(t, scrape, "floatprint_batch_parse_blocks_total"); got < 1 {
		t.Fatalf("batch_parse_blocks_total = %d, want >= 1", got)
	}
}

// metricSum sums every sample of a metric family across its label
// sets (and accepts an unlabeled sample), for totals over the
// per-route families.
func metricSum(t *testing.T, scrape, name string) uint64 {
	t.Helper()
	var sum uint64
	found := false
	sc := bufio.NewScanner(strings.NewReader(scrape))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name)
		if !ok {
			continue
		}
		if strings.HasPrefix(rest, "{") {
			i := strings.Index(rest, "} ")
			if i < 0 {
				continue
			}
			rest = rest[i+2:]
		} else if !strings.HasPrefix(rest, " ") {
			continue // a longer name sharing the prefix (_bucket, _sum)
		} else {
			rest = rest[1:]
		}
		v, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			t.Fatalf("metric %s: bad value %q", name, rest)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not found in scrape:\n%s", name, scrape)
	}
	return sum
}

// metricValue extracts an unlabeled counter/gauge value from a
// Prometheus text scrape.
func metricValue(t *testing.T, scrape, name string) uint64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(scrape))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape:\n%s", name, scrape)
	return 0
}

// TestLoadShedBurst is the acceptance check: with in-flight cap N, a
// burst of 4N concurrent batch requests yields only 200s and 429s —
// exactly N admitted, 3N shed, nothing queued or timed out — and the
// /metrics scrape reports the shed count and batch byte totals
// consistent with floatprint.Snapshot().
func TestLoadShedBurst(t *testing.T) {
	const capN = 4
	floatprint.ResetStats()
	prev := floatprint.SetStatsEnabled(true)
	defer floatprint.SetStatsEnabled(prev)

	s, ts := newTestServer(t, Config{InFlight: capN, RequestTimeout: 30 * time.Second})

	type result struct {
		code int
		body string
	}
	results := make(chan result, 4*capN)
	writers := make(chan *io.PipeWriter, 4*capN)
	var wg sync.WaitGroup
	for i := 0; i < 4*capN; i++ {
		pr, pw := io.Pipe()
		writers <- pw
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", pr)
			pr.Close()
			if err != nil {
				t.Errorf("burst request: %v", err)
				results <- result{code: -1}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			results <- result{resp.StatusCode, string(body)}
		}()
	}

	// The admitted requests block reading their pipes, holding their
	// slots; everyone else must shed.  Wait for the dust to settle.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.sheds.Load() < 3*capN || s.limiter.inFlight() < capN {
		if time.Now().After(deadline) {
			t.Fatalf("burst did not settle: sheds=%d inflight=%d",
				s.metrics.sheds.Load(), s.limiter.inFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Release the admitted requests: one value each, then EOF.
	close(writers)
	for pw := range writers {
		go func(pw *io.PipeWriter) {
			io.WriteString(pw, "0.3\n")
			pw.Close()
		}(pw)
	}
	wg.Wait()
	close(results)

	counts := map[int]int{}
	for r := range results {
		counts[r.code]++
		if r.code == http.StatusOK && r.body != "0.3\n" {
			t.Errorf("admitted batch body = %q, want \"0.3\\n\"", r.body)
		}
	}
	if counts[http.StatusOK] != capN || counts[http.StatusTooManyRequests] != 3*capN || len(counts) != 2 {
		t.Fatalf("burst status mix = %v, want %d×200 and %d×429 only", counts, capN, 3*capN)
	}

	// The scrape must agree with the library's own snapshot.
	_, scrape := get(t, ts.URL+"/metrics")
	snap := floatprint.Snapshot()
	if got := metricValue(t, scrape, "fpserved_shed_total"); got != 3*capN {
		t.Errorf("fpserved_shed_total = %d, want %d", got, 3*capN)
	}
	if got := metricSum(t, scrape, "fpserved_requests_total"); got != 4*capN {
		t.Errorf("fpserved_requests_total = %d, want %d", got, 4*capN)
	}
	if got := metricValue(t, scrape, "floatprint_batch_values_total"); got != snap.BatchValues {
		t.Errorf("floatprint_batch_values_total = %d, Snapshot().BatchValues = %d", got, snap.BatchValues)
	}
	if got := metricValue(t, scrape, "floatprint_batch_bytes_total"); got != snap.BatchBytes {
		t.Errorf("floatprint_batch_bytes_total = %d, Snapshot().BatchBytes = %d", got, snap.BatchBytes)
	}
	if snap.BatchValues < capN {
		t.Errorf("BatchValues = %d, want at least %d (one per admitted request)", snap.BatchValues, capN)
	}
}

// TestOpsEndpointsBypassLimiter: with every slot held, the service
// must still answer health checks and scrapes.
func TestOpsEndpointsBypassLimiter(t *testing.T) {
	s, ts := newTestServer(t, Config{InFlight: 1, RequestTimeout: 30 * time.Second})

	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.inFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder request never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz under full load = %d, want 200", code)
	}
	if code, scrape := get(t, ts.URL+"/metrics"); code != http.StatusOK {
		t.Errorf("metrics under full load = %d, want 200", code)
	} else if got := metricValue(t, scrape, "fpserved_in_flight"); got != 1 {
		t.Errorf("fpserved_in_flight = %d, want 1", got)
	}
	if code, _ := get(t, ts.URL+"/v1/shortest?v=1.5"); code != http.StatusTooManyRequests {
		t.Errorf("shortest under full load = %d, want 429", code)
	}

	pw.Close()
	<-done
}

// TestStalledBodyTimesOut: a client that stops sending mid-body cannot
// hold an admission slot past the request timeout.
func TestStalledBodyTimesOut(t *testing.T) {
	s, ts := newTestServer(t, Config{InFlight: 1, RequestTimeout: 300 * time.Millisecond})

	pr, pw := io.Pipe()
	go io.WriteString(pw, "1.5\n") // a valid prefix, then silence
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", pr)
	// Either a clean timeout status or a broken connection is
	// acceptable; holding the slot forever is not.
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	pw.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.inFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request still holds its slot after timeout")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStalledGetBodyAnswers: a single-value GET that declares a body
// and sends only part of it still gets its answer, at the request
// timeout.  The handler never reads the body, but net/http discards the
// unread rest before it sends the response; the read deadline limited
// sets on every route ends that discard, and the admission slot is
// already free.
func TestStalledGetBodyAnswers(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 300 * time.Millisecond})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/shortest?v=0.3 HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\n\r\n0.3\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no status line within 2 s: %v", err)
	}
	if !strings.HasPrefix(line, "HTTP/1.1 200 ") {
		t.Fatalf("status line %q, want 200", line)
	}
	if n := s.limiter.inFlight(); n != 0 {
		t.Fatalf("%d requests in flight after the answer, want 0", n)
	}
}

// TestGracefulShutdownDrains boots a real listener, starts a batch
// mid-stream, shuts down, and checks the in-flight request completes
// and the server exits cleanly within the drain deadline.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", RequestTimeout: 30 * time.Second,
		Logger: log.New(io.Discard, "", 0)})
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	pr, pw := io.Pipe()
	respDone := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+s.Addr()+"/v1/batch", "application/x-ndjson", pr)
		if err != nil {
			respDone <- err
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && string(body) != "0.5\n1.5\n" {
			err = fmt.Errorf("drained body = %q", body)
		}
		respDone <- err
	}()
	io.WriteString(pw, "0.5\n")
	time.Sleep(50 * time.Millisecond) // let the request reach the handler

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // shutdown must wait for the stream
	io.WriteString(pw, "1.5\n")
	pw.Close()

	if err := <-respDone; err != nil {
		t.Fatalf("in-flight request during shutdown: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
	}
}

// TestMetricsExposition is the per-route exposition golden test: after
// a known request mix, the scrape must carry exact labeled samples for
// the touched routes, explicit zeros for the untouched ones (absent
// series are indistinguishable from broken collection), and the
// runtime-collector families.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get(t, ts.URL+"/v1/shortest?v=0.3")
	get(t, ts.URL+"/v1/shortest?v=bogus")
	get(t, ts.URL+"/v1/parse?s=1.25")
	_, scrape := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE floatprint_ryu_hits_total counter",
		"# TYPE fpserved_requests_total counter",
		"# TYPE fpserved_request_seconds histogram",
		`fpserved_requests_total{route="/v1/shortest"} 2`,
		`fpserved_requests_total{route="/v1/parse"} 1`,
		`fpserved_requests_total{route="/v1/batch"} 0`,
		`fpserved_request_errors_total{route="/v1/shortest",class="4xx"} 1`,
		`fpserved_request_errors_total{route="/v1/shortest",class="5xx"} 0`,
		`fpserved_request_errors_total{route="/v1/parse",class="4xx"} 0`,
		`fpserved_request_seconds_bucket{route="/v1/shortest",le="+Inf"} 2`,
		`fpserved_request_seconds_count{route="/v1/shortest"} 2`,
		`fpserved_request_seconds_count{route="/v1/parse"} 1`,
		`fpserved_request_seconds_count{route="/v1/fixed"} 0`,
		"fpserved_responses_total{class=\"2xx\"} 2",
		"fpserved_responses_total{class=\"4xx\"} 1",
		"fpserved_in_flight_limit 64",
		"# TYPE fpserved_goroutines gauge",
		"# TYPE fpserved_heap_alloc_bytes gauge",
		"# TYPE fpserved_gc_cycles_total counter",
		"# TYPE fpserved_uptime_seconds gauge",
		`fpserved_build_info{go_version="` + runtime.Version() + `",instance=`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q:\n%s", want, scrape)
		}
	}
	if got := metricValue(t, scrape, "fpserved_gomaxprocs"); got != uint64(runtime.GOMAXPROCS(0)) {
		t.Errorf("fpserved_gomaxprocs = %d, want %d", got, runtime.GOMAXPROCS(0))
	}
	// Families that only repeated other counters stay out of the scrape.
	for _, gone := range []string{
		"floatprint_trace_conversions_total", "floatprint_trace_backend_total", "floatprint_digit_length",
	} {
		if strings.Contains(scrape, gone) {
			t.Errorf("scrape carries the removed family %s", gone)
		}
	}
}

// TestMetricsCarryEveryStatsFamily: every row of the library's counter
// table reaches a /metrics scrape as its floatprint_<name>_total family,
// HELP and TYPE lines included.
func TestMetricsCarryEveryStatsFamily(t *testing.T) {
	var lib strings.Builder
	if err := (floatprint.Stats{}).WritePrometheus(&lib); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	_, scrape := get(t, ts.URL+"/metrics")
	families := 0
	for _, line := range strings.Split(lib.String(), "\n") {
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families++
			if !strings.HasPrefix(name, "floatprint_") || !strings.HasSuffix(name, "_total counter") {
				t.Errorf("library family %q is not floatprint_<name>_total", name)
			}
		}
		if !strings.Contains(scrape, line+"\n") {
			t.Errorf("scrape missing %q", line)
		}
	}
	if families != int(stats.NumCounters) {
		t.Errorf("library exposition has %d families, want one per counter (%d)", families, stats.NumCounters)
	}
}

// TestPanicRecovery: a handler panic becomes a 500 and a counter, not
// a dead server — and limited's deferred block, which recovers it,
// records the panic as a 500 in the per-route metrics.  A panic after
// the handler has written breaks the connection instead, so the
// partial response cannot pass for a complete one; it counts the same.
func TestPanicRecovery(t *testing.T) {
	s := New(Config{Logger: log.New(io.Discard, "", 0)})
	mux := http.NewServeMux()
	mux.Handle("/boom", s.limited("/v1/shortest", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})))
	mux.Handle("/late", s.limited("/v1/shortest", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "partial")
		w.(http.Flusher).Flush()
		panic("late")
	})))
	ts := httptest.NewServer(s.recovered(mux))
	defer ts.Close()
	code, _ := get(t, ts.URL+"/boom")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", code)
	}
	if got := s.metrics.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	rm := s.metrics.route("/v1/shortest")
	if got := rm.err5xx.Load(); got != 1 {
		t.Fatalf("route 5xx counter = %d, want 1 (panic accounted before re-raise)", got)
	}
	if got := rm.latency.Count(); got != 1 {
		t.Fatalf("route latency count = %d, want 1", got)
	}

	if resp, err := http.Get(ts.URL + "/late"); err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatalf("panic after output = %d %q, want a broken connection", resp.StatusCode, body)
		}
	}
	if got := s.metrics.panics.Load(); got != 2 {
		t.Fatalf("panics counter after a late panic = %d, want 2", got)
	}
	if got := rm.err5xx.Load(); got != 2 {
		t.Fatalf("route 5xx counter after a late panic = %d, want 2", got)
	}
}

// benchServeShortest measures single-value request throughput over a
// real loopback connection — the serving tax on top of the ~tens of
// nanoseconds the conversion itself costs.
func benchServeShortest(b *testing.B, cfg Config) {
	cfg.Logger = log.New(io.Discard, "", 0)
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	url := ts.URL + "/v1/shortest?v=0.3"
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeShortest is the historical name CI's regression gate
// tracks release over release; tracing is off, so it doubles as the
// tracing-disabled budget check against pre-tracing baselines.
func BenchmarkServeShortest(b *testing.B) { benchServeShortest(b, Config{}) }

// BenchmarkServeShortest and _TraceOn measure the tracing tax
// directly: same request, nil tracer versus a root span plus
// decode/convert/encode children and ring publication on every
// request.
func BenchmarkServeShortest_TraceOn(b *testing.B) {
	benchServeShortest(b, Config{TraceSample: 1})
}

// TraceSampled is the production-shaped middle ground: spans are built
// for every request (the capture decision is retrospective) but only
// ~1 in 100 traces publishes to the ring.
func BenchmarkServeShortest_TraceSampled(b *testing.B) {
	benchServeShortest(b, Config{TraceSample: 100})
}

// BenchmarkServeBatchNDJSON measures end-to-end streaming batch
// throughput (parse + convert + write) over loopback.
func BenchmarkServeBatchNDJSON(b *testing.B) {
	s := New(Config{Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	values := schryer.CorpusN(65536)
	var in bytes.Buffer
	for _, v := range values {
		fmt.Fprintf(&in, "%s\n", strconv.FormatFloat(v, 'g', -1, 64))
	}
	payload := in.Bytes()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/batch", "application/x-ndjson", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.ReportMetric(float64(len(values))*float64(b.N)/b.Elapsed().Seconds(), "values/s")
}
