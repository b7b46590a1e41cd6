// RED tuning: the paper concludes that RED gateways, as parameterized in
// the late-1990s defaults, make TCP traffic burstier and hurt throughput.
// This example sweeps RED's max drop probability and thresholds at a fixed
// heavy load to show how sensitive that conclusion is to the gateway's
// tuning, and where FIFO sits for comparison.
//
// Run with: go run ./examples/redtuning
package main

import (
	"fmt"
	"log"
	"time"

	"tcpburst/internal/core"
)

const (
	clients  = 50
	duration = 60 * time.Second
)

func main() {
	fifo := runCfg()
	fmt.Printf("baseline %d Reno clients, FIFO: cov %.4f  delivered %d  loss %.2f%%\n\n",
		clients, fifo.COV, fifo.Delivered, fifo.LossPct)

	fmt.Println("RED max_p sweep (min/max thresholds 10/40):")
	fmt.Printf("%8s %8s %10s %7s %12s %12s\n", "max_p", "cov", "delivered", "loss%", "early drops", "forced drops")
	for _, maxP := range []float64{0.02, 0.05, 0.1, 0.2, 0.5} {
		res := runCfg(red("red?maxprob=%g", maxP))
		fmt.Printf("%8.2f %8.4f %10d %7.2f %12d %12d\n",
			maxP, res.COV, res.Delivered, res.LossPct, res.RED.EarlyDrops, res.RED.ForcedDrops)
	}

	fmt.Println()
	fmt.Println("RED threshold sweep (max_p 0.1):")
	fmt.Printf("%12s %8s %10s %7s\n", "min/max", "cov", "delivered", "loss%")
	for _, th := range [][2]float64{{5, 15}, {10, 30}, {10, 40}, {15, 45}, {20, 49}} {
		res := runCfg(red("red?min=%g&max=%g", th[0], th[1]))
		fmt.Printf("%5g/%-6g %8.4f %10d %7.2f\n", th[0], th[1], res.COV, res.Delivered, res.LossPct)
	}

	fmt.Println()
	fmt.Println("ECN extension (mark instead of early-drop, max_p 0.1):")
	res := runCfg(red("red?ecn=true"))
	fmt.Printf("  cov %.4f  delivered %d  loss %.2f%%  marks %d\n",
		res.COV, res.Delivered, res.LossPct, res.RED.Marks)
}

// red selects a RED gateway by spec; parameters the spec leaves out keep
// the paper defaults.
func red(format string, args ...any) core.Option {
	opt, err := core.ParseDiscipline(fmt.Sprintf(format, args...))
	if err != nil {
		log.Fatalf("queue spec: %v", err)
	}
	return opt
}

// runCfg runs the fixed heavy-load scenario with the given overrides.
func runCfg(opts ...core.Option) *core.Result {
	opts = append([]core.Option{
		core.WithClients(clients),
		core.WithProtocol(core.Reno),
		core.WithDuration(duration),
	}, opts...)
	res, err := core.Run(core.MustConfig(opts...))
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	return res
}
