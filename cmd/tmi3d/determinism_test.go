package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestCrossProcessByteIdentity is the end-to-end form of the byte-identity
// contract the internal/vet analyzers enforce statically: two separate
// processes running the same configuration must produce identical report
// bytes and identical netlist/placement artifacts. Go randomizes the map
// iteration seed per process, so any surviving map-order dependence — the
// netlist pin-order bug class — shows up here as a byte diff.
func TestCrossProcessByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs the flow twice")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tmi3d")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	type artifacts struct {
		stdout, verilog, def []byte
	}
	run := func(tag string, extra ...string) artifacts {
		prefix := filepath.Join(dir, tag)
		args := append([]string{
			"-circuit", "FPU", "-scale", "0.1", "-mode", "tmi", "-byfunc",
			"-dump", prefix}, extra...)
		cmd := exec.Command(bin, args...)
		stdout, err := cmd.Output() // -dump's confirmation line goes to stderr
		if err != nil {
			t.Fatalf("%s run: %v", tag, err)
		}
		v, err := os.ReadFile(prefix + ".v")
		if err != nil {
			t.Fatalf("%s verilog: %v", tag, err)
		}
		def, err := os.ReadFile(prefix + ".def")
		if err != nil {
			t.Fatalf("%s def: %v", tag, err)
		}
		return artifacts{stdout: stdout, verilog: v, def: def}
	}

	// run1/run2 catch per-process nondeterminism (map iteration order);
	// serial/parallel pin the intra-flow worker contract: the worker count
	// must never reach the bytes of any artifact.
	a, b := run("run1"), run("run2")
	s1, s4 := run("serial", "-workers", "1"), run("parallel", "-workers", "4")
	for _, cmp := range []struct {
		what string
		x, y []byte
	}{
		{"report stdout", a.stdout, b.stdout},
		{"verilog artifact", a.verilog, b.verilog},
		{"DEF artifact", a.def, b.def},
		{"workers=1 vs workers=4 report stdout", s1.stdout, s4.stdout},
		{"workers=1 vs workers=4 verilog artifact", s1.verilog, s4.verilog},
		{"workers=1 vs workers=4 DEF artifact", s1.def, s4.def},
		{"default vs workers=1 report stdout", a.stdout, s1.stdout},
	} {
		if !bytes.Equal(cmp.x, cmp.y) {
			t.Errorf("%s differs between two processes of the same config (%d vs %d bytes):\n--- run1 ---\n%s\n--- run2 ---\n%s",
				cmp.what, len(cmp.x), len(cmp.y), firstDiffContext(cmp.x, cmp.y), firstDiffContext(cmp.y, cmp.x))
		}
	}
}

// firstDiffContext returns a short window around the first differing byte.
func firstDiffContext(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-80, i+80
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestAnchoredLoopRaceClean is the dynamic counterpart of the parsafe proof:
// parsafe statically verifies every //tmi3dvet:parloop anchored loop free of
// cross-iteration hazards, and this test runs each anchored package's
// worker-identity suite under the race detector so the proof is backed by an
// execution, not just a summary walk. A race here means either the
// effect-set analysis missed a write or the loops drifted after anchoring.
func TestAnchoredLoopRaceClean(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the anchored packages instrumented for -race")
	}
	for _, pkg := range []struct {
		path string
		run  string // test filter
	}{
		{"tmi3d/internal/place", "WorkersMatchSerial"},
		{"tmi3d/internal/sta", "WorkersMatchSerial"},
		{"tmi3d/internal/route", "RouteWorkersMatchSerial"},
		{"tmi3d/internal/spice", "ParallelStampMatchesSerial"},
		{"tmi3d/internal/opt", "WorkersMatchSerial"},
	} {
		cmd := exec.Command("go", "test", "-race", "-count=1", "-run", pkg.run, pkg.path)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("race-instrumented %s tests failed: %v\n%s", pkg.path, err, out)
		}
	}
}
