// Fixture for configdrift rule 3 in a shared command-line package: flag
// groups that several commands register live under cmd/ too, and a
// flag-bound value must still reach core.Config through NewConfig options.
package cli

import (
	"flag"

	"tcpburst/internal/core"
)

// RunConfig registers a run group's flags and builds its configuration.
func RunConfig(fs *flag.FlagSet) core.Config {
	clients := fs.Int("clients", 10, "concurrent clients")
	var seed int64
	fs.Int64Var(&seed, "seed", 1, "rng seed")

	cfg := core.NewConfig(core.WithClients(*clients))
	cfg.Seed = seed // want `flag-bound value assigned directly to core\.Config\.Seed`
	return cfg
}
