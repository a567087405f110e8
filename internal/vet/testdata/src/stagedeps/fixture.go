// Package fixture seeds stagedeps violations around a small stage table
// whose StageKeys manifest deliberately drifts from the measured read sets:
// an uncovered field read, a dead key field, an unknown field name, an
// ambient mutable-state read, and a Nodes entry whose body is not a function
// of the package. Expected diagnostics live in expect.txt.
package fixture

// Config mirrors the flow.Config shape at small scale.
type Config struct {
	Circuit string
	Scale   float64
	Mode    int
	Util    float64
}

// Node mirrors flow.Node: run, the func-typed field taking Config, is the
// stage body; wire is not.
type Node struct {
	Name string
	Deps []string
	run  func(cfg Config) int
	wire func() any
}

// Nodes is the stage table stagedeps reads the bodies from.
var Nodes = []Node{
	{Name: "load", run: load, wire: func() any { return new(int) }},
	{Name: "build", Deps: []string{"load"}, run: build},
	{Name: "emit", Deps: []string{"build"}, run: emit},
	{Name: "report", run: report},
	{Name: "inline", run: func(cfg Config) int { return cfg.Mode }}, // seeded: no package function
}

// StageKeys drifts from the bodies below on purpose.
var StageKeys = map[string][]string{
	"load":   {"Circuit", "Scale"},                 // Scale is a seeded dead key field
	"build":  {"Mode"},                             // the Util read is seeded uncovered
	"emit":   {"Bogus", "Scale"},                   // seeded unknown field name
	"report": {"Circuit", "Mode", "Scale", "Util"}, // clean: a whole-Config use reads every field
	"inline": {"Mode"},
}

// table is read-only after initialization: reading it in a stage is fine.
var table = [4]int{1, 2, 3, 4}

// counter is mutable ambient state; its staged read is a seeded violation.
var counter int

// hits is equally mutable, but its staged access carries a reasoned
// suppression, which stagedeps honors (and globalmut audits).
var hits int

func (c Config) modeCode() int { return c.Mode }

func sink(c Config) int { return len(c.Circuit) }

func load(cfg Config) int { return len(cfg.Circuit) }

func build(cfg Config) int {
	b := cfg.modeCode() // transitive read of Mode
	c := int(cfg.Util)
	counter++ // seeded: ambient mutable state touched by a stage body
	//tmi3dvet:global fixture: observational hit counter, reset between runs
	hits++
	return b + c
}

func emit(cfg Config) int {
	if cfg.Scale > 0 {
		return table[0]
	}
	return 0
}

func report(cfg Config) int { return sink(cfg) }
