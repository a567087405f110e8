package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"

	"tmi3d/internal/flow"
	"tmi3d/internal/tech"
)

// -compare runs its two flows concurrently; each flow's seed comes from its
// config, so the report must not depend on how many threads run them.
func TestCompareIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs four flows")
	}
	bin := buildBinary(t, t.TempDir())
	out := func(procs string) []byte {
		cmd := exec.Command(bin, "-compare", "-circuit", "FPU", "-scale", "0.02")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		b, err := cmd.Output()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%s: %v", procs, err)
		}
		return b
	}
	one, two := out("1"), out("2")
	if !bytes.Equal(one, two) {
		t.Errorf("-compare output differs between GOMAXPROCS=1 and 2:\n--- 1 ---\n%s\n--- 2 ---\n%s", one, two)
	}
}

// runPair's two concurrent flows give the bytes of two serial flow.Run
// calls; under -race this also checks the flows share no unsynchronized
// process state.
func TestRunPairMatchesSerial(t *testing.T) {
	cfg2 := flow.Config{Circuit: "FPU", Scale: 0.02, Mode: tech.Mode2D}
	cfg3 := flow.Config{Circuit: "FPU", Scale: 0.02, Mode: tech.ModeTMI}
	r2, r3 := runPair(cfg2, cfg3)
	for _, c := range []struct {
		cfg flow.Config
		got *flow.Result
	}{{cfg2, r2}, {cfg3, r3}} {
		want, err := flow.Run(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := flow.EncodeResult(c.got)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := flow.EncodeResult(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("%v: concurrent result differs from a serial flow.Run", c.cfg.Mode)
		}
	}
}
