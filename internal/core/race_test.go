//go:build race

package core

// raceEnabled reports whether the race detector is on. It drops some
// sync.Pool puts on purpose, so byte budgets do not hold under it.
const raceEnabled = true
