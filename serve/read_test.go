package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"floatprint"
	"floatprint/interval"
)

// readTable is the grammar table: literals on which strconv and this
// package's reader disagree, the specials, range edges and the shapes a
// scanner trips on.  Every value route must read each one as Parse
// does, to the same value or the same 400.
var readTable = []string{
	"0.3", "1e23", "-0", ".5", "1.", "", "1 2", "1,2",
	"0x1p-2", "0X1.8P1", "1_0", "1_000.5", // strconv reads these; Parse does not
	"-NaN", "+nan", "12.5##", "1.5@2", // Parse reads these; strconv does not
	"NaN", "inf", "-Infinity", "+Inf",
	"1e999", "-1e999", "1e-400", "5e-324", "1.1754943508222875e-38",
	"\v1", "1\f", "1 ", "1e", "abc",
	"1" + strings.Repeat("0", MaxValueBytes), // one byte over the bound
}

// serveRead sends one request through h in process and returns the
// status and body.
func serveRead(h http.Handler, method, target, body string) (int, string) {
	var rd io.Reader
	if method == http.MethodPost {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "text/plain")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

// FuzzServeReadsLikeParse holds every value route to the library's
// reader.  One literal goes, in process, to /v1/shortest (also with
// bits=32, against Parse32), /v1/fixed, /v1/interval (as both ends),
// /v1/parse, and, as a one-token body when it holds no separator, to
// /v1/batch and /v1/batch-parse.  When Parse accepts it (ErrRange
// included), each route answers 200 with the library's own bytes for
// that value; /v1/interval answers 400 for NaN, as interval.New rules.
// When Parse rejects it, or it is longer than MaxValueBytes, each route
// answers 400: the single-value routes name the parameter, the batch
// routes locate record 0.  No route may answer 5xx.
func FuzzServeReadsLikeParse(f *testing.F) {
	for _, s := range readTable {
		f.Add(s)
	}
	h := New(Config{Logger: log.New(io.Discard, "", 0)}).Handler()
	f.Fuzz(func(t *testing.T, lit string) {
		q := url.QueryEscape(lit)
		long := len(lit) > MaxValueBytes
		var (
			v          float64
			v32        float32
			err, err32 error
		)
		if !long {
			v, err = floatprint.Parse(lit, nil)
			if errors.Is(err, floatprint.ErrRange) {
				err = nil
			}
			v32, err32 = floatprint.Parse32(lit, nil)
			if errors.Is(err32, floatprint.ErrRange) {
				err32 = nil
			}
		}
		check := func(target, name string, code int, body string, accepted bool, want string) {
			t.Helper()
			switch {
			case code >= 500:
				t.Fatalf("%s: %d %q", target, code, body)
			case accepted && want != "" && (code != http.StatusOK || body != want):
				t.Fatalf("%s: %d %q, want 200 %q", target, code, body, want)
			case !accepted && code != http.StatusBadRequest:
				t.Fatalf("%s: %d %q, want 400", target, code, body)
			case !accepted && !namesParam(body, name):
				t.Fatalf("%s: 400 %q does not name %s", target, body, name)
			case long && !strings.Contains(body, strconv.Itoa(MaxValueBytes)):
				t.Fatalf("%s: 400 %q does not name the limit", target, body)
			}
		}
		ok := !long && err == nil
		shortest := string(floatprint.AppendShortest(nil, v)) + "\n"

		target := "/v1/shortest?v=" + q
		code, body := serveRead(h, http.MethodGet, target, "")
		check(target, "v", code, body, ok, shortest)

		target += "&bits=32"
		code, body = serveRead(h, http.MethodGet, target, "")
		check(target, "v", code, body, !long && err32 == nil, floatprint.Shortest32(v32)+"\n")

		target = "/v1/fixed?n=17&v=" + q
		code, body = serveRead(h, http.MethodGet, target, "")
		fixed, ferr := floatprint.FormatFixed(v, 17, nil)
		if ok && ferr != nil {
			t.Fatalf("FormatFixed(%v, 17): %v", v, ferr)
		}
		check(target, "v", code, body, ok, fixed+"\n")

		target = "/v1/interval?lo=" + q + "&hi=" + q
		code, body = serveRead(h, http.MethodGet, target, "")
		if ok && math.IsNaN(v) {
			if code != http.StatusBadRequest {
				t.Fatalf("%s: %d %q, want 400 for NaN", target, code, body)
			}
		} else {
			var want string
			if ok {
				iv, ierr := interval.New(v, v)
				if ierr != nil {
					t.Fatalf("interval.New(%v, %v): %v", v, v, ierr)
				}
				out, ierr := interval.AppendShortest(nil, iv, nil)
				if ierr != nil {
					t.Fatalf("interval.AppendShortest(%v): %v", iv, ierr)
				}
				want = string(out) + "\n"
			}
			check(target, "lo", code, body, ok, want)
		}

		target = "/v1/parse?s=" + q
		code, body = serveRead(h, http.MethodGet, target, "")
		check(target, "s", code, body, ok, shortest)

		if lit == "" || strings.IndexFunc(lit, func(r rune) bool { return r < 0x80 && floatprint.BatchSep(byte(r)) }) >= 0 {
			return // not one token: an empty body, or several
		}
		code, body = serveRead(h, http.MethodPost, "/v1/batch", lit)
		check("/v1/batch", "record 0", code, body, ok, shortest)

		packed := string(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		code, body = serveRead(h, http.MethodPost, "/v1/batch-parse", lit)
		check("/v1/batch-parse", "record 0", code, body, ok, packed)
	})
}

// namesParam reports whether a 400 body names the parameter (or, for a
// batch route, the record) it refuses.
func namesParam(body, name string) bool {
	if strings.HasPrefix(name, "record") {
		return strings.Contains(body, name+" ")
	}
	return strings.HasPrefix(body, "bad "+name+" ") || strings.HasPrefix(body, "reading "+name+": ") ||
		strings.HasPrefix(body, "missing "+name+" ") || strings.HasPrefix(body, name+" exceeds ") ||
		strings.Contains(body, name+"=")
}

// nearTie is a literal of n bytes just above the binary64 midpoint
// 2⁵³+1: every prefix of up to 19 digits sits on the midpoint, so the
// kernel's pinch straddles it and the exact reader reads all n bytes.
func nearTie(n int) string {
	const head = "9007199254740993."
	return head + strings.Repeat("0", n-len(head)-1) + "1"
}

// TestValueBound checks that MaxValueBytes bounds each value route's
// cost: a near-tie literal of exactly the bound reads in well under a
// request's time on every route, and one byte more answers 400 naming
// the limit, before any read, on every route.
func TestValueBound(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under -race is not the served cost")
	}
	h := New(Config{Logger: log.New(io.Discard, "", 0)}).Handler()
	routes := func(lit string) [][3]string {
		q := url.QueryEscape(lit)
		half := nearTie((len(lit) - 3) / 2)
		return [][3]string{
			{http.MethodGet, "/v1/shortest?v=" + q},
			{http.MethodGet, "/v1/shortest?bits=32&v=" + q},
			{http.MethodGet, "/v1/fixed?n=17&v=" + q},
			{http.MethodGet, "/v1/interval?lo=" + q + "&hi=" + q},
			{http.MethodGet, "/v1/interval?s=" + url.QueryEscape("["+half+","+half+strings.Repeat("0", len(lit)-3-2*len(half))+"]")},
			{http.MethodGet, "/v1/parse?s=" + q},
			{http.MethodPost, "/v1/batch", lit},
			{http.MethodPost, "/v1/batch-parse", lit},
		}
	}
	for _, r := range routes(nearTie(MaxValueBytes)) {
		start := time.Now()
		code, body := serveRead(h, r[0], r[1], r[2])
		if d := time.Since(start); code != http.StatusOK || d > 250*time.Millisecond {
			t.Errorf("%s %.40s…: %d after %v (%.80q), want 200 within 250ms", r[0], r[1], code, d, body)
		}
	}
	for _, r := range routes(nearTie(MaxValueBytes + 1)) {
		code, body := serveRead(h, r[0], r[1], r[2])
		if code != http.StatusBadRequest || !strings.Contains(body, strconv.Itoa(MaxValueBytes)) {
			t.Errorf("%s %.40s…: %d %.80q, want 400 naming %d", r[0], r[1], code, body, MaxValueBytes)
		}
	}
}

// TestBatchOneSink pins /v1/batch's two formats to one sink: a text body
// follows the batch grammar (every separator splits values, a malformed
// token is a 400 locating it), and a binary body read one byte at a time
// yields the same values, with a split final value still a 400 naming
// the trailing bytes.
func TestBatchOneSink(t *testing.T) {
	h := New(Config{Logger: log.New(io.Discard, "", 0)}).Handler()
	code, body := serveRead(h, http.MethodPost, "/v1/batch", "1 2,3\r\n\t-0.5\n12.5##")
	if code != http.StatusOK || body != "1\n2\n3\n-0.5\n12.5\n" {
		t.Errorf("text batch = %d %q, want the five values", code, body)
	}
	code, body = serveRead(h, http.MethodPost, "/v1/batch", "1.5\n0x1p-2\n")
	if code != http.StatusBadRequest || !strings.Contains(body, "record 1 (byte offset 4)") {
		t.Errorf("malformed text batch = %d %q, want 400 locating record 1", code, body)
	}

	var packed []byte
	for _, v := range []float64{0.3, -1e23, math.Inf(1)} {
		packed = binary.LittleEndian.AppendUint64(packed, math.Float64bits(v))
	}
	for _, c := range []struct {
		body       []byte
		code       int
		want, part string
	}{
		{packed, http.StatusOK, "0.3\n-1e23\n+Inf\n", ""},
		{packed[:19], http.StatusBadRequest, "", "(3 trailing bytes)"},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", iotest.OneByteReader(bytes.NewReader(c.body)))
		req.Header.Set("Content-Type", "application/octet-stream")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if got := w.Body.String(); w.Code != c.code || c.want != "" && got != c.want || !strings.Contains(got, c.part) {
			t.Errorf("binary batch of %d bytes = %d %q, want %d %q", len(c.body), w.Code, got, c.code, c.want+c.part)
		}
	}
}
