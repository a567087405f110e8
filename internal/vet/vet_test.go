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

// TestRepoClean is the self-application gate: the full analyzer suite over
// the real module must report nothing. This is the same contract
// scripts/check.sh enforces via cmd/tmi3dvet.
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
