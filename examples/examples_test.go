// Package examples holds runnable programs, one per directory, that show the
// tmi3d packages at work. This test keeps each of them building and running.
package examples

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// Every example builds, runs at its built-in scale in a temporary directory
// (about 5 s for all five), exits 0 and prints something.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	dirs, err := filepath.Glob("*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, m := range dirs {
		name := filepath.Dir(m)
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Dir = t.TempDir()
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			if len(out) == 0 {
				t.Errorf("%s printed nothing", name)
			}
		})
	}
}
