package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary builds the tmi3d command into dir and returns its path.
func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "tmi3d")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

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
	bin := buildBinary(t, dir)

	type artifacts struct {
		stdout, verilog, def []byte
	}
	run := func(tag string) artifacts {
		prefix := filepath.Join(dir, tag)
		cmd := exec.Command(bin, "-circuit", "FPU", "-scale", "0.1", "-mode", "tmi", "-byfunc", "-dump", prefix)
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

	a, b := run("run1"), run("run2")
	for _, cmp := range []struct {
		what string
		x, y []byte
	}{
		{"report stdout", a.stdout, b.stdout},
		{"verilog artifact", a.verilog, b.verilog},
		{"DEF artifact", a.def, b.def},
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

// A typo'd -node or -mode must stop the command with the accepted
// spellings, never fall back to a default and run a whole flow.
func TestBadNodeOrModeExits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildBinary(t, t.TempDir())
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "tml"}, "2d, tmi, 3d, tmim, 3d+m"},
		{[]string{"-node", "22"}, "45, 45nm, 7, 7nm"},
		{[]string{"stages", "-mode", "t-mi"}, "2d, tmi, 3d, tmim, 3d+m"},
		{[]string{"lint", "-node", "22"}, "45, 45nm, 7, 7nm"},
	} {
		args := append(tc.args, "-circuit", "FPU", "-scale", "0.02")
		cmd := exec.Command(bin, args...)
		cmd.Dir = t.TempDir() // the stages subcommand opens its store here
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("tmi3d %s exited 0; want a non-zero exit", strings.Join(tc.args, " "))
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("tmi3d %s: output %q does not list the accepted spellings %q", strings.Join(tc.args, " "), out, tc.want)
		}
	}
}

// -dump writes one flow's artifacts and -compare runs two, so together they
// must be refused before any flow runs, not silently write nothing.
func TestCompareDumpConflictExits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	prefix := filepath.Join(dir, "out")
	cmd := exec.Command(bin, "-compare", "-dump", prefix, "-circuit", "FPU", "-scale", "0.02")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("tmi3d -compare -dump exited 0; want a non-zero exit")
	}
	if !strings.Contains(string(out), "-dump") || !strings.Contains(string(out), "-compare") {
		t.Errorf("output %q does not name the -dump/-compare conflict", out)
	}
	for _, ext := range []string{".v", ".def"} {
		if _, err := os.Stat(prefix + ext); !os.IsNotExist(err) {
			t.Errorf("%s%s exists after the refused run (stat err %v)", prefix, ext, err)
		}
	}
}
