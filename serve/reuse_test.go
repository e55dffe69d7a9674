package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"log"
	"math"
	"net/http"
	"testing"

	"floatprint/internal/schryer"
)

// captureWriter is a reusedWriter that keeps the body, in a buffer
// reused across requests.
type captureWriter struct {
	reusedWriter
	body []byte
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.reusedWriter.Write(p)
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *captureWriter) reset() {
	w.reusedWriter.reset()
	w.body = w.body[:0]
}

// serveAborted runs op through h into w and reports whether the handler
// broke the connection (panicked with http.ErrAbortHandler, which
// net/http turns into an aborted response).
func serveAborted(h http.Handler, w http.ResponseWriter, op *postOp) (aborted bool) {
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p)
			}
			aborted = true
		}
	}()
	op.serve(h, w)
	return false
}

// TestBatchReuseAfterFailure runs each batch route's failure paths on a
// Server, each followed by clean requests on the same Server whose
// responses must be byte-identical to a fresh Server's: a /v1/batch
// stream that aborts after output started (text and binary bodies), and
// a /v1/batch-parse body whose first block holds a malformed token.  The
// failed request returns its buffers to the pools with its own data in
// them.  Outside -race the test also holds each failure and clean
// request pair to a byte budget, which only a failure that gives its
// buffers back meets.
func TestBatchReuseAfterFailure(t *testing.T) {
	cfg := Config{BatchShards: 2, Logger: log.New(io.Discard, "", 0)}
	values := schryer.CorpusN(batchBlockValues + 5000)
	packed, text := packedAndText(values)
	clean := []*postOp{
		newPost("/v1/batch", "application/x-ndjson", text),
		newPost("/v1/batch", "application/octet-stream", packed),
		newPost("/v1/batch-parse", "application/x-ndjson", text),
	}
	want := make([][]byte, len(clean))
	for i, op := range clean {
		w := &captureWriter{reusedWriter: reusedWriter{header: http.Header{}}}
		op.serve(New(cfg).Handler(), w)
		if w.status != http.StatusOK {
			t.Fatalf("fresh POST %s (%s) = %d, want 200", op.req.URL.Path, op.req.Header.Get("Content-Type"), w.status)
		}
		want[i] = w.body
	}

	// Both aborting bodies carry a full block of good values, which the
	// handler streams before it reads the fault.
	abortText := append(bytes.Repeat([]byte("1.5\n"), batchBlockValues+10), "garbage\n"...)
	var abortPacked []byte
	for range batchBlockValues + 10 {
		abortPacked = binary.LittleEndian.AppendUint64(abortPacked, math.Float64bits(1.5))
	}
	abortPacked = append(abortPacked, 1, 2, 3)
	for _, c := range []struct {
		name  string
		op    *postOp
		abort bool // else 400
	}{
		{"batch text abort", newPost("/v1/batch", "application/x-ndjson", abortText), true},
		{"batch binary abort", newPost("/v1/batch", "application/octet-stream", abortPacked), true},
		{"batch-parse malformed first block", newPost("/v1/batch-parse", "application/x-ndjson", []byte("1.5\n2.25\nbad\n")), false},
	} {
		h := New(cfg).Handler()
		w := &captureWriter{reusedWriter: reusedWriter{header: http.Header{}}}
		fail := func() {
			w.reset()
			if aborted := serveAborted(h, w, c.op); aborted != c.abort {
				t.Fatalf("%s: aborted = %v, want %v", c.name, aborted, c.abort)
			}
			if !c.abort && w.status != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", c.name, w.status)
			}
		}
		for i, op := range clean {
			fail()
			w.reset()
			op.serve(h, w)
			if w.status != http.StatusOK || !bytes.Equal(w.body, want[i]) {
				t.Errorf("%s, then POST %s (%s): status %d, %d bytes; a fresh server answers 200, %d bytes",
					c.name, op.req.URL.Path, op.req.Header.Get("Content-Type"), w.status, len(w.body), len(want[i]))
			}
		}
		if raceEnabled {
			continue
		}
		// A failure that kept its buffers would leave the clean request to
		// rebuild a block slab, a parse state or chunk buffers: hundreds
		// of kilobytes or more per pair.
		pair := func() {
			fail()
			w.reset()
			clean[0].serve(h, w)
		}
		for range 5 {
			pair()
		}
		const budget = 256 << 10
		got := medianAllocBytes(11, pair)
		if got > budget {
			t.Errorf("%s, then a clean request: %d bytes allocated, want at most %d", c.name, got, budget)
		}
		t.Logf("%s, then a clean request: %d bytes", c.name, got)
	}
}
