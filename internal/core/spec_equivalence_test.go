package core

import (
	"encoding/json"
	"strings"
	"testing"

	"tcpburst/internal/queue"
	"tcpburst/internal/runcache"
)

// TestSpecLowersToLegacyConfig checks the one-form invariant: the enum
// shorthand of a legacy discipline (DefaultConfig, a Cell, a struct
// literal) and its spec spelling default to byte-identical Config JSON,
// and therefore to the same run-cache key, with Queue the only discipline
// field left.
func TestSpecLowersToLegacyConfig(t *testing.T) {
	for _, q := range []GatewayQueue{FIFO, RED, DRR} {
		spec, err := queue.ParseSpec(q.String())
		if err != nil {
			t.Fatal(err)
		}
		viaCell := DefaultConfig(20, Reno, 0)
		WithCell(Cell{Protocol: Reno, Gateway: q})(&viaCell)
		viaSpec := DefaultConfig(20, Reno, 0)
		viaSpec.Queue = &spec
		forms := map[string]Config{
			"DefaultConfig": DefaultConfig(20, Reno, q),
			"Cell":          viaCell,
			"literal":       {Clients: 20, Protocol: Reno, Gateway: q},
			"Queue":         viaSpec,
		}
		ref := viaSpec.WithDefaults()
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(want), `"Gateway"`) {
			t.Errorf("%v: defaulted config still encodes Gateway: %s", q, want)
		}
		wantKey, err := runcache.Key(resultCacheKind(ref), ref)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range forms {
			cfg = cfg.WithDefaults()
			if cfg.Gateway != 0 || cfg.QueueName() != q.String() {
				t.Errorf("%v via %s: Gateway=%v Queue=%v after WithDefaults", q, name, cfg.Gateway, cfg.Queue)
			}
			got, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%v via %s encodes differently:\n got: %s\nwant: %s", q, name, got, want)
			}
			key, err := runcache.Key(resultCacheKind(cfg), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if key != wantKey {
				t.Errorf("%v via %s: cache key %s, want %s", q, name, key, wantKey)
			}
		}
	}
}

// TestLegacyCacheKeysPinned pins the run-cache keys of the legacy golden
// cells. If one of these moves without a bump of resultCacheKindPrefix,
// previously cached results are silently orphaned or, worse, reused for a
// different config. The keys are taken under a fixed golden-table hash, so
// re-pinning a golden row, which moves every live key on purpose, leaves
// them alone.
func TestLegacyCacheKeysPinned(t *testing.T) {
	redECN := DefaultConfig(39, Vegas, 0)
	redECN.Queue = &queue.Spec{Name: "red", Params: map[string]string{"ecn": "true"}}
	cases := []struct {
		cfg  Config
		want string
	}{
		{DefaultConfig(20, Reno, FIFO),
			"cce2380f7db96d4e92b06cbbd6ce66442eb3e517371297111e69615c90617288"},
		{DefaultConfig(20, Reno, RED),
			"b203faddd251e72699ef4a0253f11d2f945953cc7f83b760df2797f6550a254b"},
		{DefaultConfig(20, Reno, DRR),
			"e3229eb0ee40ed6cf6eaf5169634b1e7bfb30039885bab880706f5a429b82085"},
		{redECN,
			"09c781efbe7c279e8791157f4e1bc2e6cea6bf7d19245074706aed957c582b0d"},
	}
	for _, tc := range cases {
		cfg := tc.cfg.WithDefaults()
		got, err := runcache.Key(resultCacheKindAt(cfg, "0123456789abcdef"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: cache key %s, want pinned %s", cfg.Label(), got, tc.want)
		}
	}
}

// TestConfigRejectsBothDisciplineForms checks that setting the enum
// shorthand and a spec together is a validation error rather than one
// silently winning.
func TestConfigRejectsBothDisciplineForms(t *testing.T) {
	cfg := DefaultConfig(10, Reno, 0)
	cfg.Gateway = RED
	spec := queue.Spec{Name: "codel"}
	cfg.Queue = &spec
	err := cfg.WithDefaults().Validate()
	if err == nil || !strings.Contains(err.Error(), "pick one discipline") {
		t.Errorf("Validate() = %v, want both-set rejection", err)
	}
}

// TestConfigValidatesSpecAtConfigTime checks that a bad spec surfaces from
// Validate with the registry's self-explaining error, not from deep inside
// a run.
func TestConfigValidatesSpecAtConfigTime(t *testing.T) {
	cases := []struct {
		spec   string
		substr string
	}{
		{"wred", "unknown discipline"},
		{"codel?targit=1ms", `unknown parameter "targit"`},
		{"tokenbucket", "rate"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(10, Reno, 0)
		spec, err := queue.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Gateway = 0
		cfg.Queue = &spec
		err = cfg.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("Validate(%q) = %v, want mention of %q", tc.spec, err, tc.substr)
		}
	}
}

// TestWithGatewayDisciplineOption checks the functional-option entry point:
// the spec is cloned (no aliasing) and clears the enum shorthand.
func TestWithGatewayDisciplineOption(t *testing.T) {
	spec, err := queue.ParseSpec("codel?target=2ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewConfig(WithClients(10), WithProtocol(Reno), WithGatewayDiscipline(spec))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Gateway != 0 || cfg.Queue == nil || cfg.Queue.String() != "codel?target=2ms" {
		t.Fatalf("WithGatewayDiscipline: Gateway=%v Queue=%v", cfg.Gateway, cfg.Queue)
	}
	spec.Params["target"] = "9ms"
	if cfg.Queue.Params["target"] != "2ms" {
		t.Error("option aliased the caller's spec map")
	}

	opt, err := ParseDiscipline("pie?ecn=true")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = NewConfig(WithClients(10), WithProtocol(Reno), opt)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.QueueName() != "pie?ecn=true" {
		t.Errorf("ParseDiscipline QueueName = %q", cfg.QueueName())
	}
	// ParseDiscipline rejects malformed syntax immediately; unknown names
	// parse (any bare word is grammatical) and fail later in Validate.
	if _, err := ParseDiscipline("codel?"); err == nil {
		t.Error("ParseDiscipline accepted a dangling '?'")
	}
	if opt, err := ParseDiscipline("no-such-queue"); err != nil {
		t.Errorf("ParseDiscipline rejected a grammatical name: %v", err)
	} else if _, err := NewConfig(WithClients(10), WithProtocol(Reno), opt); err == nil {
		t.Error("NewConfig accepted an unknown discipline")
	}
}

// TestSpecConfigRoundTripsThroughJSON checks that a registry config
// serializes and reloads with its spec intact — sweep manifests and cached
// summaries depend on it.
func TestSpecConfigRoundTripsThroughJSON(t *testing.T) {
	opt, err := ParseDiscipline("tokenbucket?burst=30&rate=3500")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewConfig(WithClients(10), WithProtocol(Reno), opt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.QueueName() != "tokenbucket?burst=30&rate=3500" {
		t.Errorf("round-tripped QueueName = %q", back.QueueName())
	}
}
