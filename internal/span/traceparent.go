package span

import "encoding/hex"

// W3C Trace Context `traceparent` interop (https://www.w3.org/TR/trace-context/):
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	   00   -  32 lowhex  -  16 lowhex -   2 lowhex
//
// Parsing follows the spec's forward-compatibility rule: any version
// except the reserved "ff" is accepted as long as the four known
// fields are well-formed (a future version may append fields after
// the flags, separated by another dash).  All-zero trace or parent
// IDs are invalid and reject the header, falling back to a fresh
// trace — a malformed upstream must not be able to alias every
// request onto trace 0.

// sampledFlag is the only trace-flags bit the spec defines.
const sampledFlag = 0x01

// ParseTraceParent parses a traceparent header value.  ok is false —
// and the other returns zero — for anything malformed, in which case
// the caller starts a fresh trace.
func ParseTraceParent(h string) (tid TraceID, parent SpanID, sampled bool, ok bool) {
	// Fixed layout: 2+1+32+1+16+1+2 = 55 bytes minimum; longer is
	// only valid for future versions with a dash-separated suffix.
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	ver, err := hex.DecodeString(h[0:2])
	if err != nil || ver[0] == 0xff {
		return TraceID{}, SpanID{}, false, false
	}
	if ver[0] == 0 && len(h) != 55 {
		return TraceID{}, SpanID{}, false, false // version 00 has no suffix
	}
	if len(h) > 55 && h[55] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	if !isLowerHex(h[3:35]) || !isLowerHex(h[36:52]) || !isLowerHex(h[53:55]) {
		return TraceID{}, SpanID{}, false, false
	}
	hex.Decode(tid[:], []byte(h[3:35]))
	hex.Decode(parent[:], []byte(h[36:52]))
	var flags [1]byte
	hex.Decode(flags[:], []byte(h[53:55]))
	if tid.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return tid, parent, flags[0]&sampledFlag != 0, true
}

// isLowerHex reports whether s is entirely lowercase hex digits (the
// spec forbids uppercase in traceparent).
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
