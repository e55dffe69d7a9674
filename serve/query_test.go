package serve

import (
	"net/url"
	"testing"
)

// FuzzQueryGet holds query.Get to url.Values: for any raw query and
// name it returns what url.ParseQuery followed by Get returns, with the
// parse error ignored as net/url ignores it for a request's query.
func FuzzQueryGet(f *testing.F) {
	for _, raw := range []string{
		"v=0.3", "v=1&v=2", "v=%zz&v=1", "%76=1", "v=1%2B2", "v=1+2",
		"a=1;v=2&v=3", "&&v=&v=1", "v", "=1&v=2", "v=%",
		"base=16&mode=zero&v=0.1",
	} {
		f.Add(raw, "v")
	}
	f.Fuzz(func(t *testing.T, raw, name string) {
		vals, _ := url.ParseQuery(raw)
		if got, want := query(raw).Get(name), vals.Get(name); got != want {
			t.Fatalf("query(%q).Get(%q) = %q, url.Values.Get = %q", raw, name, got, want)
		}
	})
}
