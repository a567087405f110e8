package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A typoed -only id must fail before any flow runs and name the valid ids,
// not print an empty report and exit 0.
func TestUnknownOnlyIDExits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, only := range []string{"tabel4", "table1,tabel4"} {
		out, err := exec.Command(bin, "-scale", "0.05", "-only", only).CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("experiments -only %s: err = %v, want a non-zero exit", only, err)
			continue
		}
		if !strings.Contains(string(out), `unknown experiment "tabel4"`) ||
			!strings.Contains(string(out), "table1, table2") || !strings.Contains(string(out), "fig11") {
			t.Errorf("experiments -only %s: output %q does not list the valid ids", only, out)
		}
		if strings.Contains(string(out), "experiment report") {
			t.Errorf("experiments -only %s printed a report:\n%s", only, out)
		}
	}
}
