package vet

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tmi3d/internal/flow"
)

var update = flag.Bool("update", false, "rewrite the fixture expect.txt golden files")

// runFixture loads one testdata package, runs a single analyzer, and compares
// the diagnostics against the golden expect.txt beside the fixture.
func runFixture(t *testing.T, dir, importPath string, a *Analyzer) []Diagnostic {
	t.Helper()
	fixDir := filepath.Join("testdata", "src", dir)
	mod, err := LoadDir(fixDir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", fixDir, err)
	}
	diags := Run(mod, []*Analyzer{a})
	if len(diags) == 0 {
		t.Fatalf("%s: fixture seeded violations but the analyzer reported nothing", a.Name)
	}
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteString("\n")
	}
	golden := filepath.Join(fixDir, "expect.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return diags
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("%s diagnostics diverge from %s\n--- got ---\n%s--- want ---\n%s", a.Name, golden, got, want)
	}
	return diags
}

func hasDiag(diags []Diagnostic, substr string) bool {
	for _, d := range diags {
		if strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}

func TestMapOrderFixture(t *testing.T) {
	diags := runFixture(t, "maporder", "fixture/internal/place", MapOrder)
	// The golden file is authoritative, but these three diagnostic classes are
	// the satellite contract and must never silently drop out of it.
	for _, want := range []string{
		"float accumulation",
		"suppression without a reason",
		"stale //tmi3dvet:ordered",
	} {
		if !hasDiag(diags, want) {
			t.Errorf("maporder fixture lost the %q diagnostic class", want)
		}
	}
	for _, fn := range []string{"collectSort", "invert", "perIterationLocals", "suppressed"} {
		_ = fn // documented clean shapes; a diagnostic pointing at them would change the golden
	}
}

func TestLockOrderFixture(t *testing.T) {
	diags := runFixture(t, "lockorder", "fixture/lockorder", LockOrder)
	if !hasDiag(diags, "lock order cycle") {
		t.Error("lockorder fixture lost the AB-BA cycle diagnostic")
	}
	if !hasDiag(diags, "reacquire") && !hasDiag(diags, "while already held") {
		t.Error("lockorder fixture lost the recursive-acquisition diagnostic")
	}
	// RWMutex modes: the inverted pure-read pair (ra, rb) is exempt, the
	// inverted pair with a writer (wa, wb) is still a cycle, and a recursive
	// RLock is still reported.
	if !hasDiag(diags, "rwPair.wa → rwPair.wb → rwPair.wa") {
		t.Error("lockorder lost the writer-involved RWMutex inversion")
	}
	if !hasDiag(diags, "RLock of rwPair.ra while already held") {
		t.Error("lockorder lost the recursive-RLock diagnostic")
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "rwPair.ra → rwPair.rb") ||
			strings.Contains(d.Message, "rwPair.rb → rwPair.ra") {
			t.Errorf("pure read-read inversion must be exempt, got: %s", d)
		}
	}
}

func TestSeedPurityFixture(t *testing.T) {
	diags := runFixture(t, "seedpurity", "fixture/internal/route", SeedPurity)
	for _, want := range []string{"time.Now", "global math/rand", "derived from map iteration"} {
		if !hasDiag(diags, want) {
			t.Errorf("seedpurity fixture lost the %q diagnostic class", want)
		}
	}
}

func TestKeyCoverageFixture(t *testing.T) {
	diags := runFixture(t, "keycoverage", "fixture/keycoverage", KeyCoverage)
	for _, want := range []string{
		"not covered by Config.Key",
		"without a reason",
		"stale //tmi3dvet:nonkey",
		// DeriveSeed drift classes.
		"in Key but not in DeriveSeed",
		"DeriveSeed mixes Extra but Key omits it",
		"stale //tmi3dvet:nonseed",
		"//tmi3dvet:nonseed suppression without a reason",
	} {
		if !hasDiag(diags, want) {
			t.Errorf("keycoverage fixture lost the %q diagnostic class", want)
		}
	}
	// Gate is the clean exclusion (keyed, not seeded, reason given): any
	// diagnostic naming it means the annotation path broke.
	for _, d := range diags {
		if strings.Contains(d.Message, "Config.Gate") {
			t.Errorf("reasoned nonseed exclusion was still reported: %s", d)
		}
	}
}

func TestStageDepsFixture(t *testing.T) {
	diags := runFixture(t, "stagedeps", "fixture/internal/flow", StageDeps)
	for _, want := range []string{
		// Manifest drift classes.
		"StageKeys[\"build\"] omits it",
		"dead key field",
		"not a field of Config",
		"has no StageKeys entry",
		"dead manifest stage",
		// Anchor discipline classes.
		"anchor without a stage name",
		"duplicate //tmi3dvet:stage anchor",
		"is nested inside a statement",
		"anchors no top-level statement",
		"precede the first //tmi3dvet:stage anchor",
		"no Config parameter",
		// Ambient-state class.
		"ambient package state counter",
	} {
		if !hasDiag(diags, want) {
			t.Errorf("stagedeps fixture lost the %q diagnostic class", want)
		}
	}
	// The reasoned //tmi3dvet:global on the hits access suppresses the
	// ambient-state diagnostic; the audit of that directive belongs to
	// globalmut, so stagedeps must not add bare/stale noise either.
	for _, d := range diags {
		if strings.Contains(d.Message, "hits") || strings.Contains(d.Message, "tmi3dvet:global sup") {
			t.Errorf("stagedeps fixture: quiet directive consultation leaked: %s", d)
		}
	}
}

func TestStageDepsMissingManifest(t *testing.T) {
	diags := runFixture(t, "stagedeps_nokeys", "fixture/stagedeps_nokeys", StageDeps)
	if !hasDiag(diags, "no StageKeys manifest") {
		t.Error("stagedeps did not demand a manifest from an anchored package")
	}
}

// TestStageFacts pins the exported per-stage read sets: the measured
// dependency surface -json hands to the incremental-cache builder.
func TestStageFacts(t *testing.T) {
	mod, err := LoadDir(filepath.Join("testdata", "src", "stagedeps"), "fixture/internal/flow")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	res := Analyze(mod, []*Analyzer{StageDeps})
	byStage := map[string]StageReads{}
	for _, sr := range res.Stages {
		if sr.Func == "Pipeline" {
			byStage[sr.Stage] = sr
		}
	}
	want := map[string][]string{
		"load":     {"Circuit"},
		"build":    {"Mode", "Util"},
		"emit":     {"Scale"},
		"unmapped": {"Circuit", "Mode", "Scale", "Util"}, // bare cfg reads every field
	}
	for stage, fields := range want {
		sr, ok := byStage[stage]
		if !ok {
			t.Errorf("stage %q missing from exported facts", stage)
			continue
		}
		if got := strings.Join(sr.ConfigFields, ","); got != strings.Join(fields, ",") {
			t.Errorf("stage %q config fields = [%s], want %v", stage, got, fields)
		}
	}
	if sr := byStage["build"]; !contains(sr.Globals, "counter") || !contains(sr.Globals, "hits") {
		t.Errorf("build stage globals = %v, want counter and hits", sr.Globals)
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func TestGlobalMutFixture(t *testing.T) {
	diags := runFixture(t, "globalmut", "fixture/internal/liberty", GlobalMut)
	for _, want := range []string{
		"written after initialization",
		"read of mutable package-level",
		"never synchronizes on its sync.Once",
		"outside a mutex-holding function",
		"written outside its sync.Once.Do",
		"never calls a sync.Once.Do",
		"suppression without a reason",
		"stale //tmi3dvet:global",
	} {
		if !hasDiag(diags, want) {
			t.Errorf("globalmut fixture lost the %q diagnostic class", want)
		}
	}
	// The allowed shapes must stay silent: the once-cell map machinery, the
	// once-published Table accessor, init-time population, and the reasoned
	// suppression in Bump.
	for _, clean := range []string{"cache[key] = e", "statDirty", "boot"} {
		for _, d := range diags {
			if strings.Contains(d.Message, clean) {
				t.Errorf("clean shape %q was reported: %s", clean, d)
			}
		}
	}
}

func TestGlobalStateScoped(t *testing.T) {
	for path, want := range map[string]bool{
		"tmi3d/internal/flow":    true, // owns the process caches
		"tmi3d/internal/liberty": true,
		"tmi3d/internal/place":   true,
		"tmi3d/internal/serve":   false,
		"tmi3d/cmd/tmi3d":        false,
	} {
		if got := GlobalStateScoped(path); got != want {
			t.Errorf("GlobalStateScoped(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestSuppressionScope pins the placement rule: an annotation suppresses the
// same line or the line directly above, and nothing else.
func TestSuppressionScope(t *testing.T) {
	diags := runFixture(t, "maporder", "fixture/internal/place", MapOrder)
	for _, d := range diags {
		if strings.Contains(d.Message, "map m keys are collected") &&
			strings.Contains(d.Message, "suppressed") {
			t.Errorf("annotated site in suppressed() was still reported: %s", d)
		}
	}
}

func TestDeterministicList(t *testing.T) {
	for path, want := range map[string]bool{
		"tmi3d/internal/place":   true,
		"tmi3d/internal/netlist": true,
		"tmi3d/internal/report":  true,
		"tmi3d/internal/flow":    false, // StageTimes wall-clock is deliberate
		"tmi3d/internal/serve":   false,
		"tmi3d/cmd/tmi3d":        false,
	} {
		if got := Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestRepoClean is the self-application gate: the full analyzer suite —
// including stagedeps and globalmut — over the real module must report
// nothing, and stagedeps must actually have verified the twelve stage
// bodies of flow's stage graph against the StageKeys manifest (an empty
// stage export would mean the proof silently stopped running). This is the same contract
// scripts/check.sh enforces via cmd/tmi3dvet.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is slow; covered by check.sh")
	}
	mod, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("Load module: %v", err)
	}
	res := Analyze(mod, All)
	for _, d := range res.Diags {
		t.Errorf("unsuppressed diagnostic: %s", d)
	}
	stages := map[string]bool{}
	for _, sr := range res.Stages {
		if strings.HasSuffix(sr.Package, "internal/flow") {
			stages[sr.Stage] = true
		}
	}
	for _, want := range []string{
		"setup", "library", "generate", "wlm", "gates", "synth",
		"place", "opt", "route", "signoff", "power", "report",
	} {
		if !stages[want] {
			t.Errorf("flow stage %q missing from the stagedeps export", want)
		}
	}
	// The wire manifest must have fully resolved: every flow.WireTypes entry
	// exports a WireFact (a missing fact means wiresafe silently skipped the
	// totality proof for that type), and the audited off-wire fields keep
	// their proven shape.
	facts := map[string]WireFact{}
	for _, wf := range res.WireTypes {
		facts[wf.Type] = wf
	}
	for key := range flow.WireTypes {
		if _, ok := facts["tmi3d/"+key]; !ok {
			t.Errorf("manifest wire type %q exported no WireFact", key)
		}
	}
	if len(res.WireTypes) != len(flow.WireTypes) {
		t.Errorf("exported %d wire facts for %d manifest entries", len(res.WireTypes), len(flow.WireTypes))
	}
	if sr := facts["tmi3d/internal/sta.Result"]; sr.Kind != "codec" || !contains(sr.Attrs, "nonfinite") {
		t.Errorf("sta.Result wire fact = kind %q attrs %v, want the non-finite-aware codec", sr.Kind, sr.Attrs)
	}
	if lib := facts["tmi3d/internal/liberty.Library"]; lib.Kind != "codec" || !contains(lib.NonWire, "byBase") {
		t.Errorf("liberty.Library wire fact = kind %q nonwire %v, want the codec with byBase audited off", lib.Kind, lib.NonWire)
	}
	if des := facts["tmi3d/internal/netlist.Design"]; des.Kind != "codec" || !contains(des.NonWire, "netIndex") {
		t.Errorf("netlist.Design wire fact = kind %q nonwire %v, want the codec with netIndex audited off", des.Kind, des.NonWire)
	}
	if fr := facts["tmi3d/internal/flow.Result"]; fr.Kind != "tags" || !contains(fr.NonWire, "StageTimes") {
		t.Errorf("flow.Result wire fact = kind %q nonwire %v, want tags with StageTimes audited off", fr.Kind, fr.NonWire)
	}
	if fc := facts["tmi3d/internal/flow.Config"]; fc.Kind != "tags" || !contains(fc.NonWire, "Workers") {
		t.Errorf("flow.Config wire fact = kind %q nonwire %v, want tags with Workers audited off", fc.Kind, fc.NonWire)
	}
}

func TestGoDiscFixture(t *testing.T) {
	diags := runFixture(t, "godisc", "fixture/godisc", GoDisc)
	for _, want := range []string{
		"the loop body reassigns",      // stale capture of last
		"WaitGroup.Add inside",         // Add in spawned goroutine
		"WaitGroup.Add after Wait",     // Add after Wait
		"never receives",               // unbuffered send leak
		"with no lock in the closure",  // unlocked shared write
		"goroutine per range element",  // unbounded fan-out
		"suppression without a reason", // bare //tmi3dvet:godisc
		"stale //tmi3dvet:godisc",      // annotation outlived the code
	} {
		if !hasDiag(diags, want) {
			t.Errorf("godisc fixture lost the %q diagnostic class", want)
		}
	}
	// The sanctioned shapes (handoff, buffered, indexed, lockedWrite,
	// bounded, suppressedSpawn) stay silent: each generic diagnostic class
	// must appear exactly once, from its seeded violation — a second
	// occurrence means a clean shape was flagged. The golden pins positions.
	for _, once := range []string{
		"never receives",              // leak only — not handoff or buffered
		"with no lock in the closure", // unlockedWrite only — not lockedWrite or indexed
		"per range element",           // unbounded only — not bounded or suppressedSpawn
	} {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Message, once) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%q reported %d times, want exactly 1 (a sanctioned shape was flagged)", once, n)
		}
	}
}

func TestWireSafeFixture(t *testing.T) {
	diags := runFixture(t, "wiresafe", "fixture/wiresafe", WireSafe)
	for _, want := range []string{
		"never restored by",                      // silent drop: Record.Dropped
		"but never marshaled by",                 // decoder invents: Record.invent
		"is not covered by the",                  // uncovered: Record.Ghost
		"stale //tmi3dvet:nonwire on Record",     // wired codec field annotated
		"stale //tmi3dvet:nonwire on Tags",       // serialized tags field annotated
		"no unmarshal counterpart",               // OnlyMar
		"no marshal counterpart",                 // OnlyUnm
		"excluded from the wire",                 // Tags.Off / Tags.hidden
		"has no custom codec",                    // NFTags nonfinite without codec
		"raw float field",                        // nfJSON.WNS
		"//tmi3dvet:finite suppression without",  // nfJSON.Bad
		"stale //tmi3dvet:finite",                // nfJSON.Name (not a float)
		"copied into plain-JSON wire field",      // assemble()
		"is not of the form",                     // badkey
		"no module package matches",              // fixture/other.Gone
		"declares no type",                       // Missing
		"is not a struct type",                   // Scalar
		"manifest does not name it",              // Rogue
		"//tmi3dvet:nonwire suppression without", // Record.Bare / Tags.BareTag
	} {
		if !hasDiag(diags, want) {
			t.Errorf("wiresafe fixture lost the %q diagnostic class", want)
		}
	}
	// The clean shapes stay silent: the fully wired fields, the reasoned
	// exclusions, the clamped copy, and the method+Decode* codec pair.
	for _, clean := range []string{"Kept", "Skip", "Deco", "Fine"} {
		for _, d := range diags {
			if strings.Contains(d.Message, clean) {
				t.Errorf("clean shape %q was reported: %s", clean, d)
			}
		}
	}
	// Exactly the assignment and the composite-literal copy are lexical
	// violations; the clamp()-wrapped twin must not be.
	n := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "copied into plain-JSON") {
			n++
		}
	}
	if n != 2 {
		t.Errorf("non-finite copy reported %d times, want exactly 2 (the clamped twin was flagged)", n)
	}
}

func TestCtxDiscFixture(t *testing.T) {
	diags := runFixture(t, "ctxdisc", "fixture/internal/serve", CtxDisc)
	for _, want := range []string{
		"a context.Context it never uses", // dropped
		"no cancellation path",            // orphan
		"time.Sleep in context-bearing",   // sleeper
		"time.After inside a loop",        // ticker
		"is never stopped",                // unstopped
		"is not closed on the path",       // leaked handles
		"blocking I/O",                    // flushUnderLock / persistThroughHelper
		"suppression without a reason",    // bareAudit
		"stale //tmi3dvet:ctxdisc",        // staleAudit
	} {
		if !hasDiag(diags, want) {
			t.Errorf("ctxdisc fixture lost the %q diagnostic class", want)
		}
	}
	// Each generic class fires only from its seeded sites — a higher count
	// means a clean twin (bounded, threaded, pool, closedBothArms,
	// deferClosed, handedOff, stopped, snapshotThenWrite) was flagged.
	for want, n := range map[string]int{
		"no cancellation path":      1, // orphan only; audited and bareAudit are suppressed
		"is not closed on the path": 3, // disjunction return, loop continue, function end
		"blocking I/O":              2, // direct write and the writeOut helper
		"is never stopped":          1, // unstopped only; stopped defers Stop
	} {
		got := 0
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				got++
			}
		}
		if got != n {
			t.Errorf("%q reported %d times, want exactly %d (a clean twin was flagged)", want, got, n)
		}
	}
}

func TestCtxScoped(t *testing.T) {
	for path, want := range map[string]bool{
		"tmi3d/internal/serve":   true, // owns the HTTP lifecycle
		"tmi3d/internal/castore": true, // owns file handles
		"tmi3d/internal/stage":   true,
		"tmi3d/cmd/loadgen":      true,
		"tmi3d/internal/flow":    false, // deterministic core: no I/O to discipline
		"tmi3d/cmd/tmi3d":        false,
	} {
		if got := CtxScoped(path); got != want {
			t.Errorf("CtxScoped(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestNoDoubleSuppressionReports pins the directive-ownership contract from
// suppress.go: every fixture package is scanned by the full suite, and no
// bare/stale-suppression diagnostic may appear twice — which is exactly what
// happens if two analyzers both believe they audit the same directive.
func TestNoDoubleSuppressionReports(t *testing.T) {
	fixtures := map[string]string{
		"maporder":    "fixture/internal/place",
		"lockorder":   "fixture/lockorder",
		"seedpurity":  "fixture/internal/route",
		"keycoverage": "fixture/keycoverage",
		"stagedeps":   "fixture/internal/flow",
		"globalmut":   "fixture/internal/liberty",
		"godisc":      "fixture/godisc",
		"wiresafe":    "fixture/wiresafe",
		"ctxdisc":     "fixture/internal/serve",
	}
	dirs := make([]string, 0, len(fixtures))
	for dir := range fixtures {
		dirs = append(dirs, dir)
	}
	for _, dir := range dirs {
		mod, err := LoadDir(filepath.Join("testdata", "src", dir), fixtures[dir])
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		diags := Run(mod, All)
		seen := map[string]string{}
		for _, d := range diags {
			if !strings.Contains(d.Message, "suppression without a reason") &&
				!strings.Contains(d.Message, "stale //tmi3dvet:") {
				continue
			}
			key := d.Pos.String() + " " + d.Message
			if prev, dup := seen[key]; dup {
				t.Errorf("%s: directive reported by both %s and %s: %s", dir, prev, d.Check, d.Message)
			}
			seen[key] = d.Check
		}
	}
}
