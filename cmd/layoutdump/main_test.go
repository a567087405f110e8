package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// layoutdump renders FPU in both modes, writing both heat maps, and refuses
// a mode it does not know instead of rendering 2D under a typo.
func TestLayoutDumpSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "layoutdump")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct{ mode, label string }{{"2d", "FPU 2D:"}, {"tmi", "FPU T-MI:"}} {
		cmd := exec.Command(bin, "-circuit", "FPU", "-mode", c.mode, "-scale", "0.05", "-out", c.mode)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("layoutdump -mode %s: %v\n%s", c.mode, err, out)
		}
		if !strings.HasPrefix(string(out), c.label) {
			t.Errorf("layoutdump -mode %s printed %.60q, want it to start with %q", c.mode, out, c.label)
		}
		for _, f := range []string{c.mode + "_place.ppm", c.mode + "_congestion.ppm"} {
			if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
				t.Errorf("layoutdump -mode %s: %s missing or empty (%v)", c.mode, f, err)
			}
		}
	}
	cmd := exec.Command(bin, "-circuit", "FPU", "-mode", "tml", "-scale", "0.05", "-out", "typo")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("layoutdump -mode tml: err = %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown mode "tml"`) || !strings.Contains(string(out), "2d, tmi") {
		t.Errorf("layoutdump -mode tml: output %q does not list the accepted modes", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "typo_place.ppm")); err == nil {
		t.Error("layoutdump -mode tml wrote a layout")
	}
}
