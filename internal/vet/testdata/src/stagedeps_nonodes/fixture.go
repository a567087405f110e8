// Package fixture declares a StageKeys manifest but no Nodes table: stagedeps
// must report that it cannot find the stage bodies rather than silently
// verifying nothing.
package fixture

type Config struct{ N int }

var StageKeys = map[string][]string{"only": {"N"}}

func Run(cfg Config) int { return cfg.N }
