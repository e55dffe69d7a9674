package serve

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"floatprint/internal/span"
)

// syncBuffer serializes writes so the slog handler can be driven from
// the server's concurrent request goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDAndAccessLog: every conversion request gets a
// process-unique X-Request-Id, and the structured access log carries the
// same id with method, path, and status.
func TestRequestIDAndAccessLog(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{
		Slog: slog.New(slog.NewTextHandler(&logBuf, nil)),
	})

	idPattern := regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{8}$`)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/shortest?v=0.3")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if !idPattern.MatchString(id) {
			t.Fatalf("X-Request-Id = %q, want hex prefix-counter shape", id)
		}
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true

		log := logBuf.String()
		for _, want := range []string{
			"request_id=" + id, "method=GET", "path=/v1/shortest", "status=200",
		} {
			if !bytes.Contains([]byte(log), []byte(want)) {
				t.Errorf("access log missing %q:\n%s", want, log)
			}
		}
	}
}

// TestAccessLogWarnsOn5xx: a 5xx response surfaces as a Warn-level
// access record, so failures stand out of an Info-level stream.
func TestAccessLogWarnsOn5xx(t *testing.T) {
	var logBuf syncBuffer
	s, _ := newTestServer(t, Config{
		Slog: slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	h := s.limited("/v1/shortest", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "deliberate failure", http.StatusInternalServerError)
	}))
	req, _ := http.NewRequest(http.MethodGet, "/v1/shortest?v=1", nil)
	rec := newRecorder()
	h.ServeHTTP(rec, req)
	if rec.status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.status)
	}
	log := logBuf.String()
	if !bytes.Contains([]byte(log), []byte("level=WARN")) ||
		!bytes.Contains([]byte(log), []byte("status=500")) {
		t.Errorf("5xx access log not WARN/500:\n%s", log)
	}
}

// newRecorder is a minimal ResponseWriter for driving the wrapper without
// a network hop.
type recorder struct {
	header http.Header
	status int
	bytes  int
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.bytes += len(p)
	return len(p), nil
}

// TestDebugEndpointsGated: the profiling surface must not exist unless
// asked for, and /debug/exemplars never does: /debug/traces is the one
// capture reader.
func TestDebugEndpointsGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	for _, path := range []string{"/debug/pprof/", "/debug/exemplars"} {
		if code, _ := get(t, off.URL+path); code != http.StatusNotFound {
			t.Errorf("without Debug, GET %s = %d, want 404", path, code)
		}
	}

	_, on := newTestServer(t, Config{Debug: true})
	if code, body := get(t, on.URL+"/debug/pprof/"); code != http.StatusOK ||
		!bytes.Contains([]byte(body), []byte("goroutine")) {
		t.Errorf("with Debug, GET /debug/pprof/ = %d, want 200 with profile index", code)
	}
	if code, _ := get(t, on.URL+"/debug/exemplars"); code != http.StatusNotFound {
		t.Errorf("with Debug, GET /debug/exemplars = %d, want 404", code)
	}
}

// TestExemplarCapture: with tracing off, Debug on and the slow threshold
// at its floor, every request is an exemplar, captured in /debug/traces
// as a one-span trace: reason slow, the route, a positive duration, and
// the root-span attributes a traced request carries, request_id matching
// X-Request-Id.  The ring returns them newest first.
func TestExemplarCapture(t *testing.T) {
	_, ts := newTestServer(t, Config{Debug: true, SlowRequest: time.Nanosecond})

	var ids []string
	for i := 0; i < 3; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/shortest?v=%d.5", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if tid := resp.Header.Get("X-Trace-Id"); tid != "" {
			t.Fatalf("tracing off, yet X-Trace-Id = %q", tid)
		}
		ids = append(ids, resp.Header.Get("X-Request-Id"))
	}

	code, got := getTraces(t, ts.URL+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces = %d, want 200", code)
	}
	if got.SampleEvery != 0 || got.Total != 3 || len(got.Traces) != 3 {
		t.Fatalf("sample_every=%d total=%d len=%d, want 0, 3 and 3",
			got.SampleEvery, got.Total, len(got.Traces))
	}
	for i, tr := range got.Traces { // newest first
		if tr.Route != "/v1/shortest" || tr.Reason != "slow" || tr.TraceID != "" ||
			tr.DurationMS <= 0 || len(tr.Spans) != 1 {
			t.Fatalf("trace[%d] = %+v, want one-span /v1/shortest slow capture, no trace id", i, tr)
		}
		root := tr.Spans[0]
		if root.Name != "/v1/shortest" || root.DurationMS != tr.DurationMS || root.Start.IsZero() {
			t.Errorf("trace[%d] root = %+v, want the route, its duration and start", i, root)
		}
		want := map[string]string{
			"request_id": ids[len(ids)-1-i], "method": "GET", "status": "200", "bytes": "4",
		}
		if attrs := attrMap(root.Attrs); !reflect.DeepEqual(attrs, want) {
			t.Errorf("trace[%d] attrs = %v, want %v", i, attrs, want)
		}
	}
}

// TestExemplarCaptures5xx: with tracing off, a fast 5xx is still an
// exemplar and reaches the ring, with reason error and status 500; a
// fast 200 does not.
func TestExemplarCaptures5xx(t *testing.T) {
	s := New(Config{Debug: true, Logger: log.New(io.Discard, "", 0)})
	mux := http.NewServeMux()
	mux.Handle("/boom", s.limited("/v1/shortest", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "deliberate", http.StatusInternalServerError)
	})))
	mux.Handle("/", s.Handler())
	ts := httptest.NewServer(s.recovered(mux))
	defer ts.Close()
	if code, _ := get(t, ts.URL+"/v1/shortest?v=0.3"); code != http.StatusOK {
		t.Fatal("healthy request failed")
	}
	if code, _ := get(t, ts.URL+"/boom"); code != http.StatusInternalServerError {
		t.Fatal("handler did not 500")
	}
	traces, total := s.traceRing.Snapshot()
	if total != 1 || len(traces) != 1 || traces[0].Reason != "error" ||
		attrMap(traces[0].Spans[0].Attrs)["status"] != "500" {
		t.Fatalf("ring after a fast 200 and a fast 500 = %+v (total %d), want one error capture", traces, total)
	}
}

// attrMap flattens span attributes for comparison.
func attrMap(attrs []span.Attr) map[string]string {
	m := map[string]string{}
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}
