// Parking lot: the paper studies one gateway; real distributed computing
// systems chain several. This example runs the two-bottleneck parking-lot
// topology — long flows crossing both hops against single-hop cross
// traffic — and shows (a) the multi-bottleneck fairness penalty on long
// flows, (b) how Vegas vs Reno changes it, and (c) that TCP-induced
// burstiness appears at both gateways.
//
// The parking lot is a topology of core.Config: setting Config.ParkingLot
// runs it through core.RunBatch like any dumbbell experiment, and the
// Result reports each bottleneck and each client group.
//
// Run with: go run ./examples/parkinglot [-shards K]
//
// -shards K spreads each run over K schedulers, placed by the topology
// compiler: at 2 the split is the inter-gateway cut, and from 3 on the
// clients spread over the shards beyond the two gateways'. Results are
// bit-identical at every K (see DESIGN.md §11); make shard-smoke diffs
// the tables at 0 and 4 against testdata/table.txt.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"tcpburst/internal/core"
)

func main() {
	shards := flag.Int("shards", 0, "schedulers per run (0 or 1 serial; up to one per client, bit-identical at every count)")
	flag.Parse()

	fmt.Println("Two-bottleneck parking lot: 20 long + 20 per-hop cross clients")
	fmt.Println()
	fmt.Printf("%-8s %8s %10s %10s %10s %10s %9s\n",
		"protocol", "queue", "long", "hop1", "hop2", "longShare", "covHop2")

	// The four protocol/queue combinations are independent, so run them
	// through the parallel batch engine instead of a serial loop.
	var cfgs []core.Config
	for _, p := range []core.Protocol{core.Reno, core.Vegas} {
		for _, q := range []core.GatewayQueue{core.FIFO, core.DRR} {
			cfgs = append(cfgs, core.Config{
				ParkingLot: &core.ParkingLot{Long: 20, Hop1: 20, Hop2: 20},
				Protocol:   p,
				Gateway:    q,
				Duration:   60 * time.Second,
				Shards:     *shards,
			})
		}
	}
	results, _, err := core.RunBatch(context.Background(), cfgs, core.ExecOptions{})
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	for _, res := range results {
		// Groups are long, hop-1 and hop-2 clients; bottleneck 1 is hop 2,
		// which the long and hop-2 clients share.
		long, hop1, hop2 := res.Groups[0].Delivered, res.Groups[1].Delivered, res.Groups[2].Delivered
		fmt.Printf("%-8s %8s %10d %10d %10d %9.1f%% %9.4f\n",
			res.Config.Protocol, res.Config.QueueName(), long, hop1, hop2,
			float64(long)/float64(long+hop2)*100, res.Bottlenecks[1].COV)
	}

	fmt.Println()
	fmt.Println("Long flows cross two congested queues and see a longer RTT, so they")
	fmt.Println("take well under half of the shared hop; per-flow fair queueing (DRR)")
	fmt.Println("at the gateways narrows the gap.")
}
