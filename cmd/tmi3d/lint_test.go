package main

import (
	"encoding/json"
	"errors"
	"os/exec"
	"testing"

	"tmi3d/internal/lint"
)

// tmi3d lint exits by its report: 0 on the flow's synthesized netlist, and
// non-zero with JSON naming each rule an injected defect breaks.
func TestLintSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildBinary(t, t.TempDir())
	args := []string{"lint", "-circuit", "FPU", "-scale", "0.1"}
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("tmi3d lint on a clean netlist: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, append(args, "-corrupt", "multidrive,loop")...).Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("tmi3d lint -corrupt multidrive,loop: err %v, want a non-zero exit", err)
	}
	var reports []*lint.Report
	if err := json.Unmarshal(out, &reports); err != nil {
		t.Fatalf("stdout is not a JSON report list: %v\n%s", err, out)
	}
	seen := map[string]bool{}
	for _, rep := range reports {
		for _, d := range rep.Diags {
			seen[d.Rule] = true
		}
	}
	for _, rule := range []string{"ERC-MULTIDRIVE", "ERC-LOOP"} {
		if !seen[rule] {
			t.Errorf("report does not name %s:\n%s", rule, out)
		}
	}
}
