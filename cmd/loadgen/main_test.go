package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Flag values that leave nothing to do must be refused with a message, not
// reach the request loop: -workers 0 would block forever sending on the
// unbuffered work channel. The checks run before any connection is made.
func TestBadCountsExit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "loadgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "0"}, "-workers must be at least 1"},
		{[]string{"-workers", "-3"}, "-workers must be at least 1"},
		{[]string{"-n", "0"}, "-n must be at least 1"},
		{[]string{"-cold", "2"}, "-cold must be in [0,1]"},
	} {
		// Nothing listens on the address: a run that got past the flag checks
		// would fail its requests rather than reach a daemon.
		args := append([]string{"-addr", "127.0.0.1:1", "-timeout", "1s"}, tc.args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("loadgen %s: err = %v, want a non-zero exit", strings.Join(tc.args, " "), err)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("loadgen %s: output %q does not contain %q", strings.Join(tc.args, " "), out, tc.want)
		}
	}
}
