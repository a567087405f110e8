package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tmi3d/internal/flow"
	"tmi3d/internal/tech"
)

// reportBlock returns print1's block of a command's stdout: its header line
// through its power line.
func reportBlock(out string) string {
	var block []string
	for _, line := range strings.Split(out, "\n") {
		if line == "" && len(block) == 0 {
			continue
		}
		block = append(block, line)
		if strings.HasPrefix(line, "  power") {
			return strings.Join(block, "\n")
		}
	}
	return ""
}

// tmi3d replay re-runs the flow's own sign-off on a dump, so it prints the
// flow's report block byte for byte. Below the printed precision, the
// parsed dump through flow.Analyze gives the flow's WNS exactly and its
// wirelength and power to rounding (the parsed netlist numbers its nets in
// file order, so sums run in another order).
func TestReplayMatchesFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs six flows")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	for _, c := range []struct {
		name, modeFlag string
		mode           tech.Mode
		clock          float64
	}{
		{"2d", "2d", tech.Mode2D, 0},
		{"tmi", "tmi", tech.ModeTMI, 0},
		{"tmi-clock2000", "tmi", tech.ModeTMI, 2000},
	} {
		t.Run(c.name, func(t *testing.T) {
			prefix := filepath.Join(dir, c.name)
			dump, err := exec.Command(bin, "-circuit", "FPU", "-scale", "0.1", "-node", "45",
				"-mode", c.modeFlag, "-clock", strconv.FormatFloat(c.clock, 'g', -1, 64), "-dump", prefix).Output()
			if err != nil {
				t.Fatalf("tmi3d -dump: %v", err)
			}
			replay, err := exec.Command(bin, "replay", "-dump", prefix).Output()
			if err != nil {
				t.Fatalf("tmi3d replay: %v", err)
			}
			want, got := reportBlock(string(dump)), reportBlock(string(replay))
			if want == "" || got != want {
				t.Errorf("replay report differs from the flow's:\n--- flow ---\n%s\n--- replay ---\n%s", want, got)
			}
			if !strings.Contains(string(replay), "critical path (") {
				t.Errorf("replay printed no critical path:\n%s", replay)
			}

			r, err := flow.Run(flow.Config{Circuit: "FPU", Scale: 0.1, Node: tech.N45, Mode: c.mode, ClockPs: c.clock})
			if err != nil {
				t.Fatal(err)
			}
			cfg, pl, err := readDump(prefix)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cfg, r.Config) {
				t.Errorf("dumped config %+v, want %+v", cfg, r.Config)
			}
			a, err := flow.Analyze(cfg, pl.Design, pl)
			if err != nil {
				t.Fatal(err)
			}
			if a.Result.WNS != r.WNS {
				t.Errorf("WNS %v ps, flow %v ps", a.Result.WNS, r.WNS)
			}
			for _, v := range []struct {
				what      string
				got, want float64
			}{
				{"wirelength", a.Result.TotalWL, r.TotalWL},
				{"total power", a.Result.Power.Total, r.Power.Total},
				{"cell power", a.Result.Power.Cell, r.Power.Cell},
				{"net power", a.Result.Power.Net, r.Power.Net},
				{"leakage", a.Result.Power.Leakage, r.Power.Leakage},
			} {
				if math.Abs(v.got-v.want) > 1e-12*math.Abs(v.want) {
					t.Errorf("%s %v, flow %v", v.what, v.got, v.want)
				}
			}
		})
	}
}

// A dump replay cannot read exactly must stop it, naming the file.
func TestReplayRejectsBrokenDump(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	good := filepath.Join(dir, "good")
	if out, err := exec.Command(bin, "-circuit", "FPU", "-scale", "0.02", "-dump", good).CombinedOutput(); err != nil {
		t.Fatalf("tmi3d -dump: %v\n%s", err, out)
	}
	v, err := os.ReadFile(good + ".v")
	if err != nil {
		t.Fatal(err)
	}
	def, err := os.ReadFile(good + ".def")
	if err != nil {
		t.Fatal(err)
	}
	comp := string(def)[strings.Index(string(def), "\n- ")+1:]
	comp = comp[:strings.IndexByte(comp, '\n')]
	_, body, _ := strings.Cut(string(v), "// generated by tmi3d")
	for _, c := range []struct {
		name, v, def string // def "" writes no .def
		file, want   string
	}{
		{"missing-def", string(v), "", ".def", "no such file"},
		{"truncated-component", string(v), strings.Replace(string(def), comp, comp[:len(comp)/2], 1), ".def", "malformed"},
		{"no-config-header", "// generated by tmi3d" + body, string(def), ".v", "header"},
		{"unknown-cell", strings.Replace(string(v), "  DFF_X1 ", "  NOPE_X1 ", 1), string(def), ".v", "NOPE_X1 is no cell"},
		{"unmapped-cell", strings.Replace(string(v), "  DFF_X1 ", "  DFF ", 1), string(def), ".v", "DFF is no cell"},
	} {
		prefix := filepath.Join(dir, c.name)
		if err := os.WriteFile(prefix+".v", []byte(c.v), 0o644); err != nil {
			t.Fatal(err)
		}
		if c.def != "" {
			if err := os.WriteFile(prefix+".def", []byte(c.def), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		out, err := exec.Command(bin, "replay", "-dump", prefix).CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("%s: err = %v, want a non-zero exit\n%s", c.name, err, out)
			continue
		}
		if !strings.Contains(string(out), prefix+c.file) || !strings.Contains(string(out), c.want) {
			t.Errorf("%s: output %q does not name %s%s and %q", c.name, out, prefix, c.file, c.want)
		}
	}
}
