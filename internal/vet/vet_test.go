package vet

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestSeedPurityFixture(t *testing.T) {
	diags := runFixture(t, "seedpurity", "fixture/internal/route", SeedPurity)
	for _, want := range []string{"time.Now", "global math/rand", "derived from map iteration"} {
		if !hasDiag(diags, want) {
			t.Errorf("seedpurity fixture lost the %q diagnostic class", want)
		}
	}
}

func TestStageDepsFixture(t *testing.T) {
	diags := runFixture(t, "stagedeps", "fixture/internal/flow", StageDeps)
	for _, want := range []string{
		// Read-set classes.
		"StageKeys[\"build\"] omits it",
		"dead key field",
		"not a field of Config",
		"ambient package state counter",
		// Liveness: an entry whose body stagedeps cannot read.
		"Nodes entry \"inline\" has no body function",
	} {
		if !hasDiag(diags, want) {
			t.Errorf("stagedeps fixture lost the %q diagnostic class", want)
		}
	}
	// The reasoned //tmi3dvet:global on the hits access suppresses the
	// ambient-state diagnostic; the audit of that directive belongs to
	// globalmut, so stagedeps must not add bare/stale noise either. The
	// report stage's whole-Config use reads every field its key lists.
	for _, d := range diags {
		if strings.Contains(d.Message, "hits") || strings.Contains(d.Message, "tmi3dvet:global sup") ||
			strings.Contains(d.Message, `"report"`) {
			t.Errorf("stagedeps fixture: clean shape reported: %s", d)
		}
	}
}

// A package with a StageKeys manifest but no Nodes table to find the stage
// bodies in must be reported, not verified as vacuously clean.
func TestStageDepsMissingManifest(t *testing.T) {
	diags := runFixture(t, "stagedeps_nonodes", "fixture/stagedeps_nonodes", StageDeps)
	if !hasDiag(diags, "no resolvable Nodes table") {
		t.Error("stagedeps did not demand a Nodes table from a package with StageKeys")
	}
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
// nothing. This is the same contract scripts/check.sh enforces via
// cmd/tmi3dvet; stagedeps reports a stage table it cannot resolve, so a
// clean run means its proof ran.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is slow; covered by check.sh")
	}
	mod, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("Load module: %v", err)
	}
	for _, d := range Run(mod, All) {
		t.Errorf("unsuppressed diagnostic: %s", d)
	}
}

// TestNoDoubleSuppressionReports pins the directive-ownership contract from
// suppress.go: every fixture package is scanned by the full suite, and no
// bare/stale-suppression diagnostic may appear twice — which is exactly what
// happens if two analyzers both believe they audit the same directive.
func TestNoDoubleSuppressionReports(t *testing.T) {
	fixtures := map[string]string{
		"maporder":   "fixture/internal/place",
		"seedpurity": "fixture/internal/route",
		"stagedeps":  "fixture/internal/flow",
		"globalmut":  "fixture/internal/liberty",
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
