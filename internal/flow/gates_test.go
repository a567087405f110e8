package flow

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/tech"
)

// floatingSource is a hook that adds an inverter on an undriven net to the
// generated source: synthesis maps it, and the post-synth lint gate refuses
// the mapped netlist (ERC-FLOATINPUT).
func floatingSource(n *Node, exec func() (any, error)) (any, error) {
	v, err := exec()
	if n.Name == "generate" && err == nil {
		d := v.(*netlist.Design)
		d.AddInstance("floater", "INV", map[string]string{"A": "floating", "Z": "floater_out"}, "Z")
		d.AddPO("floater_out", "floater_out")
	}
	return v, err
}

// A gate that fails under GateEnforce fails the run with the gate's own
// error, although the stages after it went on while it checked: the run
// returns what it returned when the gate ran before the next stage, and no
// gate goroutine outlives it.
func TestEnforcedGateFailureFailsRun(t *testing.T) {
	cfg := Config{Circuit: "FPU", Scale: 0.05, Node: tech.N45, Mode: tech.Mode2D}
	warn := cfg
	warn.Lint = lint.GateWarnOnly
	res, err := NewExecution(warn, floatingSource).Result(false)
	if err != nil {
		t.Fatalf("warn-only run: %v", err)
	}
	refused := res.LintReports[0].Err()
	if refused == nil || !strings.Contains(refused.Error(), "ERC-FLOATINPUT") {
		t.Fatalf("post-synth lint of the floating source: %v, want ERC-FLOATINPUT", refused)
	}
	want := "lint gate post-synth: " + refused.Error()

	base := runtime.NumGoroutine()
	res, err = NewExecution(cfg, floatingSource).Result(false)
	if err == nil || res != nil {
		t.Fatalf("enforced run: result %v, error %v; want the gate's error", res != nil, err)
	}
	if err.Error() != want {
		t.Errorf("enforced run error %q, want %q", err, want)
	}
	waitGoroutines(t, base)
}

// A gate's panic is re-raised where the pair is joined, with the panic value
// and the gate's stack; wait, for joiners that must not panic, returns it.
func TestGatePanicReraisedByJoin(t *testing.T) {
	p := goGates(func(*gatePair) error { panic("injected gate failure") })
	err := p.wait()
	var gp *gatePanic
	if !errors.As(err, &gp) || gp.value != "injected gate failure" || !strings.Contains(err.Error(), "gate goroutine") {
		t.Fatalf("wait after a gate panic: %v, want the panic as an error with its stack", err)
	}
	defer func() {
		if r := recover(); r != gp {
			t.Fatalf("join recovered %v, want the gate's panic", r)
		}
	}()
	_ = p.join()
	t.Fatal("join returned after a gate panic")
}

// Encode waits for the gates still checking an artifact, so it never
// encodes half-filled reports, and refuses an artifact whose gates failed.
func TestEncodeWaitsForGates(t *testing.T) {
	n := node(t, "synth")
	release := make(chan struct{})
	a := &synthArtifact{}
	a.gates = goGates(func(*gatePair) error {
		<-release
		a.Lint = []*lint.Report{{Subject: "filled by the gate"}}
		return nil
	})
	time.AfterFunc(10*time.Millisecond, func() { close(release) })
	data, err := n.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := n.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*synthArtifact).Lint; len(got) != 1 || got[0].Subject != "filled by the gate" {
		t.Fatalf("encoded lint reports %v, want the one the gate filled in", got)
	}

	refused := &synthArtifact{gates: goGates(func(*gatePair) error { return errors.New("refused") })}
	if _, err := n.Encode(refused); err == nil || !strings.HasSuffix(err.Error(), "refused") {
		t.Fatalf("encode of an artifact whose gate failed: %v, want the gate's error", err)
	}
}

// joined settles every gate its function came upon, in pipeline order: the
// first failing gate's error replaces the stage's error or panic, a gate's
// panic is re-raised, and a stage's panic passes through when every gate
// passed.
func TestJoinedPrecedence(t *testing.T) {
	gateErr, stageErr := errors.New("gate refused"), errors.New("stage failed")
	pass := func(*gatePair) error { return nil }
	fail := func(*gatePair) error { return gateErr }
	slowFail := func(*gatePair) error { time.Sleep(20 * time.Millisecond); return errors.New("later gate refused") }
	for _, c := range []struct {
		name  string
		gates []func(*gatePair) error
		stage func() error
		err   error
		panic any
	}{
		{"all pass", []func(*gatePair) error{pass, pass}, func() error { return nil }, nil, nil},
		{"stage error", []func(*gatePair) error{pass}, func() error { return stageErr }, stageErr, nil},
		{"gate error wins over the stage's", []func(*gatePair) error{pass, fail}, func() error { return stageErr }, gateErr, nil},
		{"first failing gate wins", []func(*gatePair) error{fail, slowFail}, func() error { return nil }, gateErr, nil},
		{"gate error wins over a stage panic", []func(*gatePair) error{fail}, func() error { panic("stage") }, gateErr, nil},
		{"stage panic passes gates that passed", []func(*gatePair) error{pass}, func() error { panic("stage") }, nil, "stage"},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			x := NewExecution(Config{}, nil)
			var err error
			func() {
				defer func() {
					if r := recover(); r != c.panic {
						t.Errorf("recovered %v, want %v", r, c.panic)
					}
				}()
				err = x.joined(func() error {
					for _, g := range c.gates {
						x.gates = append(x.gates, goGates(g))
					}
					return c.stage()
				})
			}()
			if err != c.err {
				t.Errorf("error %v, want %v", err, c.err)
			}
			waitGoroutines(t, base)
		})
	}
}

// waitGoroutines waits for the process to be back to base goroutines: a gate
// goroutine that closed its pair's done channel has exited, or is about to.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after the run, %d before:\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(time.Millisecond)
	}
}
