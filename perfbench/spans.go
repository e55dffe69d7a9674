package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanCap bounds the spans one log keeps: a traced lib-exact loop
// completes millions of calls, and keeping them all would take hundreds
// of megabytes.  A log is a ring that keeps its last spanCap spans, so
// every traced op pays the same cost, one span written to memory, however
// long the run; the spans it overwrote are counted.
const spanCap = 1 << 15

// span is one timed operation, recorded from the benchmark around a call
// into a layer.  Spans of the traced loop are roots carrying the server's
// request id; ladder spans are children of the ladder's root span.
type span struct {
	name       string
	id, parent uint64
	start, end time.Duration // from the run's time base
	req        [24]byte
	reqLen     uint8
}

// spanLog is one goroutine's in-memory span ring.
type spanLog struct {
	prefix uint64 // makes ids unique across logs
	seq    uint64
	spans  []span
	n      int64 // spans recorded; the ring holds the last spanCap
}

// traceSpans collects the logs written out when the run ends.
var traceSpans []*spanLog

func newSpanLog() *spanLog {
	l := &spanLog{prefix: uint64(len(traceSpans) + 1), spans: make([]span, spanCap)}
	traceSpans = append(traceSpans, l)
	return l
}

// reserve returns a fresh span id, for a span whose children are
// recorded before it ends.
func (l *spanLog) reserve() uint64 {
	l.seq++
	return l.prefix<<40 | l.seq
}

// add records a span under a fresh id.
func (l *spanLog) add(name string, parent uint64, start, end time.Duration, req []byte) {
	l.record(l.reserve(), name, parent, start, end, req)
}

// record records a span under an id from reserve.
func (l *spanLog) record(id uint64, name string, parent uint64, start, end time.Duration, req []byte) {
	s := &l.spans[l.n%spanCap]
	*s = span{name: name, id: id, parent: parent, start: start, end: end}
	s.reqLen = uint8(copy(s.req[:], req))
	l.n++
}

// writeSpans writes every kept span, oldest first within each log, as one
// JSON object per line, and returns the number written and the number
// the rings overwrote.
func writeSpans(path string) (written, overwritten int64, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name      string `json:"name"`
		ID        uint64 `json:"id"`
		Parent    uint64 `json:"parent,omitempty"`
		StartNs   int64  `json:"start_ns"`
		EndNs     int64  `json:"end_ns"`
		RequestID string `json:"request_id,omitempty"`
	}
	for _, l := range traceSpans {
		first := max(l.n-spanCap, 0)
		overwritten += first
		for i := first; i < l.n; i++ {
			s := &l.spans[i%spanCap]
			if err := enc.Encode(line{s.name, s.id, s.parent, int64(s.start), int64(s.end), string(s.req[:s.reqLen])}); err != nil {
				f.Close()
				return written, overwritten, err
			}
			written++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return written, overwritten, err
	}
	return written, overwritten, f.Close()
}
