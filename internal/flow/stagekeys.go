package flow

import "reflect"

// StageKeys is the declarative per-stage cache-key contract of the Nodes
// stage graph: for each node name, the Config fields whose values the
// stage's cached artifacts may depend on. The executor hands each body
// Config.only of its entry, so a body can read no field its key omits: a
// stray read sees the zero value, never a value its artifact ID does not
// cover, and a cached artifact can never be stale. A listed field the stage
// never reads would split identical artifacts into distinct cache entries.
//
// Everything a stage consumes beyond its key fields is an upstream node's
// value (netlist, placement, the derived seed, the gate set), which the
// executor hands a body only if its node's Deps name it; the staged engine
// (internal/stage) folds those Deps' artifact IDs into the stage's own.
//
// Reporting-only stages have empty keys on purpose: synth, place, route, and
// signoff are pure functions of upstream artifacts, which is exactly what
// makes them cacheable at fine grain. ClockPs appears only at opt (and the
// whole-config report stage): a sweep override steers optimization and
// sign-off, never synthesis or placement, so clock-sweep points share every
// upstream artifact.
var StageKeys = map[string][]string{
	"setup":    {"Activities", "Circuit", "Mode", "Node", "PinCapScale", "ResistivityScale", "Scale", "Seed", "Use2DWLM", "Util"},
	"library":  {"Mode", "Node", "PinCapScale"},
	"generate": {"Circuit", "Node", "Scale"},
	"wlm":      {"Circuit", "Mode", "Node", "Use2DWLM", "Util"},
	"gates":    {"Circuit", "Equiv", "Lint", "Mode", "Node"},
	"synth":    {},
	"place":    {},
	"opt":      {"ClockPs", "ResistivityScale"},
	"route":    {},
	"signoff":  {},
	"power":    {"Activities"},
	"report":   {"Activities", "Circuit", "ClockPs", "Equiv", "Lint", "Mode", "Node", "PinCapScale", "ResistivityScale", "Scale", "Seed", "Use2DWLM", "Util", "Workers"},
}

// only returns a copy of the config with every field outside fields zeroed:
// a stage body's view of its run.
func (c Config) only(fields []string) Config {
	var out Config
	src, dst := reflect.ValueOf(c), reflect.ValueOf(&out).Elem()
	for _, f := range fields {
		dst.FieldByName(f).Set(src.FieldByName(f))
	}
	return out
}
