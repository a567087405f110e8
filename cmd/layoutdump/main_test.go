package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tmi3d/internal/flow"
	"tmi3d/internal/route"
	"tmi3d/internal/tech"
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

// The congestion map spreads each net over its pins' bounding box: the grid
// sums to the total routed length, and a net spanning several grid cells
// lands in more than one.
func TestCongestionSpreadsOverBoundingBox(t *testing.T) {
	pl, a, err := implement(flow.Config{Circuit: "FPU", Scale: 0.05, Node: tech.N45, Mode: tech.Mode2D})
	if err != nil {
		t.Fatal(err)
	}
	rt := a.Route
	const w, h = 64, 48
	sum := 0.0
	for _, v := range congestion(pl, rt, w, h) {
		sum += v
	}
	if math.Abs(sum-rt.TotalLen) > 1e-9*rt.TotalLen {
		t.Errorf("congestion grid sums to %v µm, routed length is %v µm", sum, rt.TotalLen)
	}
	// The longest-spanning routed net alone.
	widest := -1
	for ni, nr := range rt.Routes {
		if nr.Len > 0 && (widest < 0 || pl.NetHPWL(ni) > pl.NetHPWL(widest)) {
			widest = ni
		}
	}
	one := &route.Result{Routes: make([]route.NetRoute, len(rt.Routes))}
	one.Routes[widest] = rt.Routes[widest]
	cells := 0
	for _, v := range congestion(pl, one, w, h) {
		if v > 0 {
			cells++
		}
	}
	if cells < 2 {
		t.Errorf("net %d (HPWL %.0f µm on a %.0f µm die) lands in %d grid cell(s), want its bounding box", widest, pl.NetHPWL(widest), pl.Die.W(), cells)
	}
}
