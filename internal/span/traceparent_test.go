package span

import (
	"testing"
	"time"
)

func TestParseTraceParent(t *testing.T) {
	tid, parent, sampled, ok := ParseTraceParent(
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("canonical spec example rejected")
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", tid)
	}
	if parent.String() != "00f067aa0ba902b7" {
		t.Errorf("parent id = %s", parent)
	}
	if !sampled {
		t.Error("flags 01 not read as sampled")
	}

	if _, _, sampled, ok = ParseTraceParent(
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"); !ok || sampled {
		t.Errorf("flags 00: ok=%v sampled=%v, want accepted unsampled", ok, sampled)
	}

	// A future version may append dash-separated fields.
	if _, _, _, ok = ParseTraceParent(
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future-version suffix rejected")
	}

	for _, bad := range []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // version 00 has no suffix
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // reserved version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero parent id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase forbidden
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // wrong separator
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // bad version hex
		"00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01",   // bad id hex
	} {
		if _, _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("malformed %q accepted", bad)
		}
	}
}

// TestPropagationAdoptsUpstreamIdentity: a request arriving with a
// valid traceparent continues that trace — same trace ID, remote
// parent on the root span — and the sampled flag forces capture even
// with head sampling off.
func TestPropagationAdoptsUpstreamIdentity(t *testing.T) {
	tr := New(Config{SampleEvery: 0, Seed: 9})
	const upstream = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	root := tr.StartRequest(upstream)
	if root.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %s, want the upstream's", root.TraceID())
	}
	reason := root.Keep(200, 0, time.Hour)
	if reason != "head" {
		t.Fatalf("reason = %q, want head (upstream sampled flag forces capture)", reason)
	}
	if got := root.Trace(Record{Name: "/v1/parse"}, reason).Spans[0].ParentID; got != "00f067aa0ba902b7" {
		t.Fatalf("root parent = %s, want the upstream span id", got)
	}

	// An unsampled upstream header with sampling off: identity adopted,
	// trace discarded.
	unsampled := tr.StartRequest("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	if reason := unsampled.Keep(200, 0, time.Hour); reason != "" {
		t.Fatalf("unsampled upstream captured (%q)", reason)
	}
}
