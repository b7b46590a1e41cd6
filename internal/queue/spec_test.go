package queue

import (
	"maps"
	"strings"
	"testing"
	"time"

	"tcpburst/internal/sim"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in     string
		name   string
		params map[string]string
	}{
		{"fifo", "fifo", nil},
		{"red?ecn=true", "red", map[string]string{"ecn": "true"}},
		{"codel?target=5ms&interval=100ms", "codel",
			map[string]string{"target": "5ms", "interval": "100ms"}},
		{"tokenbucket?rate=3000&burst=60&perflow=true", "tokenbucket",
			map[string]string{"rate": "3000", "burst": "60", "perflow": "true"}},
	}
	for _, tc := range cases {
		spec, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if spec.Name != tc.name {
			t.Errorf("ParseSpec(%q).Name = %q, want %q", tc.in, spec.Name, tc.name)
		}
		if len(spec.Params) != len(tc.params) {
			t.Errorf("ParseSpec(%q).Params = %v, want %v", tc.in, spec.Params, tc.params)
			continue
		}
		for k, v := range tc.params {
			if spec.Params[k] != v {
				t.Errorf("ParseSpec(%q).Params[%q] = %q, want %q", tc.in, k, spec.Params[k], v)
			}
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		in     string
		substr string
	}{
		{"", "empty discipline name"},
		{"?target=5ms", "empty discipline name"},
		{"red=ecn", "malformed name"},
		{"a&b", "malformed name"},
		{"codel?", "'?' with no parameters"},
		{"codel?target", "not key=value"},
		{"codel?=5ms", "not key=value"},
		{"codel?target=1ms&target=2ms", "duplicate parameter"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("ParseSpec(%q) error = %v, want mention of %q", tc.in, err, tc.substr)
		}
	}
}

// TestSpecStringCanonical checks that String sorts parameters, so two specs
// differing only in key order render — and hence label and cache — the same.
func TestSpecStringCanonical(t *testing.T) {
	a, err := ParseSpec("codel?target=5ms&interval=100ms")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("codel?interval=100ms&target=5ms")
	if err != nil {
		t.Fatal(err)
	}
	const want = "codel?interval=100ms&target=5ms"
	if a.String() != want || b.String() != want {
		t.Errorf("String() = %q / %q, want both %q", a, b, want)
	}
	// Round trip: parsing the canonical form reproduces it.
	c, err := ParseSpec(a.String())
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != want {
		t.Errorf("round trip = %q, want %q", c, want)
	}
	if bare := (Spec{Name: "fifo"}); bare.String() != "fifo" {
		t.Errorf("bare spec String() = %q, want fifo", bare)
	}
}

func TestSpecClone(t *testing.T) {
	orig, err := ParseSpec("red?ecn=true")
	if err != nil {
		t.Fatal(err)
	}
	cl := orig.Clone()
	cl.Params["ecn"] = "false"
	cl.Params["gentle"] = "true"
	if orig.Params["ecn"] != "true" || len(orig.Params) != 1 {
		t.Errorf("Clone aliased the original: %v", orig.Params)
	}
}

// FuzzParseSpec checks the spec grammar on arbitrary input: a string that
// parses renders to a canonical form that parses back to the same spec
// (and renders identically), and building it through the registry returns
// a discipline or an error, never a panic.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"fifo", "drr", "red", "red?ecn=true", "red?min=5&max=15&gentle=true",
		"red?min=0", "red?weight=NaN", "codel?target=5ms&interval=100ms",
		"pie?ecn=true&maxecnprob=0.2", "tokenbucket?burst=25&rate=2000",
		"leakybucket?depth=10&rate=500&perflow=true", "fifo?x=1", "a?b=c=d",
		"wred", "codel?", "?x=1", "red?min=1&min=2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		canon := spec.String()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) ok, but its String %q does not parse: %v", in, canon, err)
		}
		if back.Name != spec.Name || !maps.Equal(back.Params, spec.Params) || back.String() != canon {
			t.Fatalf("ParseSpec(%q) = %+v, round trip through %q = %+v", in, spec, canon, back)
		}
		_, _ = Build(spec, BuildContext{
			Capacity:       50,
			PacketSize:     1000,
			MeanPacketTime: 258 * time.Microsecond,
			RNG:            func() *sim.RNG { return sim.NewRNG(1) },
		})
	})
}
