package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"tcpburst/internal/telemetry"
)

// TestTelemetryStreamsPinned pins the full JSONL telemetry stream of one
// serial, one sharded and one fluid run against digests captured from an
// earlier implementation. TestSameSeedSameBytes only compares two runs of
// one build; this test is what catches a changed cov.rtt value, a
// reordered column or a dropped final row. The sink is wrapped in
// MultiSink so the records carry no run label. A changed digest means the
// stream changed: justify it in review before updating the table.
func TestTelemetryStreamsPinned(t *testing.T) {
	cases := []struct {
		name   string
		cfg    func() Config
		digest string
	}{
		{"reno-red-n30-serial", func() Config {
			cfg := DefaultConfig(30, Reno, RED)
			cfg.Duration = 20 * time.Second
			return cfg
		}, "3702fa0424e335c1d0d7a6d77e6a419c73cb278c496b58cef1c2fb66b021079a"},
		{"reno-fifo-n30-shards2", func() Config {
			cfg := DefaultConfig(30, Reno, FIFO)
			cfg.Duration = 20 * time.Second
			cfg.Shards = 2
			return cfg
		}, "c9e7d60871c77855f22b0002aa26358c0b3108c06e3de51281b3eed3cbd8891a"},
		{"fluid-red-n1000", func() Config {
			cfg := DefaultConfig(1000, Reno, RED)
			cfg.Backend = FluidBackend
			cfg.Duration = 5 * time.Second
			return cfg
		}, "1876c82dc4a93741be2d08697394ec81ff5c7d5e973ce1a48df93c76039aaedb"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var stream bytes.Buffer
			cfg := tc.cfg()
			cfg.TelemetryInterval = 100 * time.Millisecond
			cfg.TelemetrySink = telemetry.MultiSink(telemetry.NewJSONL(&stream))
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.TelemetryRecords == 0 {
				t.Fatal("no telemetry records streamed")
			}
			sum := sha256.Sum256(stream.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("stream digest = %s, want %s (%d records, %d bytes)",
					got, tc.digest, res.TelemetryRecords, stream.Len())
			}
		})
	}
}
