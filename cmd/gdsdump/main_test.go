package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// gdsdump writes a GDSII stream and a LEF file for each library, and the two
// libraries differ.
func TestGDSDumpSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gdsdump")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	written := map[string][]byte{}
	for _, args := range [][]string{{"-out", "cells2d"}, {"-tmi", "-out", "cellstmi"}} {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("gdsdump %v: %v\n%s", args, err, out)
		}
		prefix := args[len(args)-1]
		for _, ext := range []string{".gds", ".lef"} {
			b, err := os.ReadFile(filepath.Join(dir, prefix+ext))
			if err != nil || len(b) == 0 {
				t.Fatalf("gdsdump %v: %s%s missing or empty (%v)", args, prefix, ext, err)
			}
			written[prefix+ext] = b
		}
	}
	if bytes.Equal(written["cells2d.gds"], written["cellstmi.gds"]) || bytes.Equal(written["cells2d.lef"], written["cellstmi.lef"]) {
		t.Error("-tmi wrote the same library as 2D")
	}
}
