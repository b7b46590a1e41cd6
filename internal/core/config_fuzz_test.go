package core

import (
	"testing"
	"time"
)

// FuzzNewConfig maps fuzz inputs onto NewConfig options: the topology and
// its client counts, a two-block Mix, protocols, a queue spec string, the
// traffic model, access-delay jitter, the gateway buffer and the shard
// count. Any config NewConfig accepts must run 100 ms of simulated time
// without panicking and return a result or an error. The harness caps
// clients at 64 and shards at 4, so no input starts more than a handful of
// goroutines.
func FuzzNewConfig(f *testing.F) {
	type in struct {
		lot              bool
		long, hop1, hop2 int8
		mix              uint8
		proto, proto2    uint8
		spec             string
		traffic          uint8
		jitterMs, buffer int16
		shards           uint8
	}
	for _, s := range []in{
		{long: 10, proto: 2, spec: "fifo"},
		{long: 20, mix: 8, proto: 2, proto2: 4, spec: "red?ecn=true", traffic: 2},
		{long: 40, proto: 1, spec: "codel?target=5ms", jitterMs: 3, buffer: 20, shards: 2},
		{lot: true, long: 4, hop1: 3, hop2: 3, proto: 4, spec: "drr", shards: 3},
		{lot: true, long: 2, hop1: -1, proto: 2, spec: "pie"},
		{lot: true, long: 5, hop2: 5, mix: 5, proto: 2, spec: "tokenbucket?burst=25&rate=2000"},
		{long: 8, proto: 7, spec: "leakybucket?depth=10&rate=500&perflow=true", buffer: -3, shards: 4},
	} {
		f.Add(s.lot, s.long, s.hop1, s.hop2, s.mix, s.proto, s.proto2, s.spec, s.traffic, s.jitterMs, s.buffer, s.shards)
	}
	f.Fuzz(func(t *testing.T, lot bool, long, hop1, hop2 int8, mix, proto, proto2 uint8,
		spec string, traffic uint8, jitterMs, buffer int16, shards uint8) {
		opts := []Option{
			WithDuration(100 * time.Millisecond),
			WithProtocol(Protocol(proto % 9)),
			WithTraffic(TrafficModel(traffic % 3)),
			WithClientDelayJitter(time.Duration(jitterMs) * time.Millisecond),
			WithBuffer(int(buffer)),
			WithShards(int(shards % 5)),
		}
		clients := min(int(long), 64)
		if lot {
			lot := &ParkingLot{Long: min(int(long), 21), Hop1: min(int(hop1), 21), Hop2: min(int(hop2), 21)}
			clients = lot.Long + lot.Hop1 + lot.Hop2
			opts = append(opts, func(c *Config) { c.ParkingLot = lot })
		}
		opts = append(opts, WithClients(clients))
		if m := int(mix % 65); m > 0 {
			opts = append(opts, WithMix(
				MixEntry{Protocol: Protocol(proto % 9), Clients: m},
				MixEntry{Protocol: Protocol(proto2 % 9), Clients: clients - m},
			))
		}
		if q, err := ParseDiscipline(spec); err == nil {
			opts = append(opts, q)
		}
		cfg, err := NewConfig(opts...)
		if err != nil {
			return
		}
		res, err := Run(cfg)
		if (res == nil) == (err == nil) {
			t.Fatalf("Run(%s) = %v, %v; want a result or an error", cfg.Label(), res, err)
		}
	})
}
