package serve

import (
	"bytes"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
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

// TestRequestAllocBudget pins what one single-value request allocates
// in process, through Handler as fpserved ships it: telemetry on, the
// access log on (to io.Discard), tracing off.  The counts include the
// handler body, the access-log record and the per-request deadline
// context; the wrapper itself adds the record, the id string, one
// context value and one request clone.  The four-layer middleware it
// replaced allocated three or four more on each route.
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
		{"/v1/shortest?v=0.3", 19},
		{"/v1/parse?s=0.3", 19},
		{"/v1/fixed?v=3.14159&n=3", 20},
		{"/v1/interval?lo=0.1&hi=0.3", 22},
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
