package flow

// StageKeys is the declarative per-stage cache-key contract of the Nodes
// stage graph: for each //tmi3dvet:stage name, the Config fields whose
// values the stage's cached artifacts may depend on. The stagedeps analyzer
// (internal/vet) diffs each stage body's statically computed transitive read
// set against this map on every CI run, so the manifest is proven sound — a
// field read here but missing from the key would serve stale cached
// artifacts; a listed field the stage never reads would split identical
// artifacts into distinct cache entries.
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
