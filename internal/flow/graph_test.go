package flow

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"tmi3d/internal/lint"
	"tmi3d/internal/power"
	"tmi3d/internal/sta"
	"tmi3d/internal/tech"
)

// The stage graph and the StageKeys manifest must name exactly the same
// stages, in dependency-consistent order, with a codec on exactly the cached
// nodes and every key field renderable by FieldKeyTerm — the static contract
// the staged engine's artifact IDs are built from.
func TestDAGMatchesStageKeys(t *testing.T) {
	seen := map[string]bool{}
	for i := range Nodes {
		n := &Nodes[i]
		if seen[n.Name] {
			t.Errorf("node %q declared twice", n.Name)
		}
		for _, dep := range n.Deps {
			if !seen[dep] {
				t.Errorf("node %q depends on %q, which is not declared before it (topological order)", n.Name, dep)
			}
		}
		seen[n.Name] = true
		if _, ok := StageKeys[n.Name]; !ok {
			t.Errorf("node %q has no StageKeys entry", n.Name)
		}
		if n.run == nil {
			t.Errorf("node %q has no body", n.Name)
		}
		if n.Cached != (n.wire != nil) {
			t.Errorf("node %q: Cached = %v but codec present = %v", n.Name, n.Cached, n.wire != nil)
		}
	}
	for stage := range StageKeys {
		if !seen[stage] {
			t.Errorf("StageKeys stage %q has no graph node", stage)
		}
	}

	// FieldKeyTerm is total over the manifest's key domain (Workers excepted:
	// the staged engine filters the ignored field from every key).
	cfg := Config{
		Circuit: "AES", Scale: 0.5, Node: tech.N45, Mode: tech.ModeTMI,
		ClockPs: 850, Util: 0.6, PinCapScale: 0.9,
		ResistivityScale: map[tech.LayerClass]float64{tech.ClassLocal: 1.5},
	}
	for stage, fields := range StageKeys {
		for _, f := range fields {
			if f == "Workers" {
				continue
			}
			if got := cfg.FieldKeyTerm(f); got == "" && f != "Circuit" {
				t.Errorf("FieldKeyTerm(%q) (stage %q) is empty", f, stage)
			}
		}
	}
	// A clock sweep must split opt's key and share everything upstream.
	has := func(stage, field string) bool {
		for _, f := range StageKeys[stage] {
			if f == field {
				return true
			}
		}
		return false
	}
	if !has("opt", "ClockPs") {
		t.Error("opt key is insensitive to ClockPs: sweep points would collide")
	}
	for _, stage := range []string{"setup", "library", "generate", "wlm", "gates", "synth", "place"} {
		if has(stage, "ClockPs") {
			t.Errorf("%s key is sensitive to ClockPs: sweep points would not share it", stage)
		}
	}
}

// A body reads only its node's Deps, each once: a request for any other
// node's value fails the run instead of reading around the artifact ID.
func TestUndeclaredDepIsError(t *testing.T) {
	x := NewExecution(Config{Circuit: "FPU", Scale: 0.1, Node: tech.N45, Mode: tech.Mode2D}, nil)
	x.nodes = append([]Node(nil), Nodes...)
	for i := range x.nodes {
		if n := &x.nodes[i]; n.Name == "place" {
			n.Deps = []string{"setup", "library", "wlm"} // synth dropped
		}
	}
	_, err := x.resolve("place")
	if err == nil || !strings.Contains(err.Error(), "stage place reads synth, which is not among its Deps") {
		t.Fatalf("place without synth in its Deps: err = %v, want the undeclared-dep error", err)
	}
	if _, ok := x.vals["place"]; ok {
		t.Error("the failed place value was memoized")
	}

	// Each input is read once: the executor drops a value after its last
	// declared reader, so a second read could re-run the node.
	in := &inputs{read: NewExecution(x.cfg, nil).read, node: &Node{Name: "library", Deps: []string{"setup"}}}
	in.get("setup")
	if in.err != nil {
		t.Fatalf("first read of setup: %v", in.err)
	}
	if in.get("setup"); in.err == nil || !strings.Contains(in.err.Error(), "reads setup twice") {
		t.Fatalf("second read of setup: err = %v, want the double-read error", in.err)
	}
}

// Each body sees its StageKeys fields and nothing else: on a config with
// every field set, a body's Config carries its key fields unchanged and
// every other field zero, so no body can read around its artifact ID.
func TestStageBodiesSeeOnlyKeyFields(t *testing.T) {
	cfg := Config{
		Circuit: "FPU", Scale: 0.03, Node: tech.N7, Mode: tech.ModeTMI,
		ClockPs: 600, Util: 0.6, PinCapScale: 0.9,
		ResistivityScale: map[tech.LayerClass]float64{tech.ClassLocal: 1.5},
		Use2DWLM:         true, Activities: power.Activities{PrimaryInput: 0.3, SeqOutput: 0.2},
		Seed: 7, Lint: lint.GateWarnOnly, Equiv: lint.GateWarnOnly, Workers: 1,
	}
	ct := reflect.TypeOf(cfg)
	for i := 0; i < ct.NumField(); i++ {
		if reflect.ValueOf(cfg).Field(i).IsZero() {
			t.Fatalf("test config leaves %s zero: set it, or masking it shows nothing", ct.Field(i).Name)
		}
	}
	x := NewExecution(cfg, nil)
	seen := map[string]Config{}
	x.nodes = append([]Node(nil), Nodes...)
	for i := range x.nodes {
		n := &x.nodes[i]
		run := n.run
		n.run = func(c Config, in *inputs) (any, error) {
			seen[n.Name] = c
			return run(c, in)
		}
	}
	if _, err := x.Result(false); err != nil {
		t.Fatal(err)
	}
	want := reflect.ValueOf(x.cfg)
	for _, n := range Nodes {
		got, ok := seen[n.Name]
		if !ok {
			t.Errorf("stage %s never ran", n.Name)
			continue
		}
		key := map[string]bool{}
		for _, f := range StageKeys[n.Name] {
			key[f] = true
		}
		gv := reflect.ValueOf(got)
		for i := 0; i < ct.NumField(); i++ {
			name := ct.Field(i).Name
			switch {
			case key[name] && !reflect.DeepEqual(gv.Field(i).Interface(), want.Field(i).Interface()):
				t.Errorf("stage %s: key field %s = %v, want %v", n.Name, name, gv.Field(i), want.Field(i))
			case !key[name] && !gv.Field(i).IsZero():
				t.Errorf("stage %s sees %s = %v, which its key omits", n.Name, name, gv.Field(i))
			}
		}
	}
}

// Timing vectors legitimately hold non-finite values; the sign-off envelope
// must round-trip them exactly.
func TestNonFiniteTimingRoundTrip(t *testing.T) {
	var signoff *Node
	for i := range Nodes {
		if Nodes[i].Name == "signoff" {
			signoff = &Nodes[i]
		}
	}
	art := &signoffArtifact{
		Timing: &sta.Result{
			Arrival: []float64{math.Inf(-1), 12.5, math.NaN()},
			Slew:    []float64{4.25, math.Inf(1)},
			WNS:     math.Inf(1),
			TNS:     0,
			ClockPs: 850,
		},
	}
	data, err := signoff.Encode(art)
	if err != nil {
		t.Fatal(err)
	}
	v, err := signoff.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	back := v.(*signoffArtifact)
	if !math.IsInf(back.Timing.Arrival[0], -1) || !math.IsNaN(back.Timing.Arrival[2]) ||
		!math.IsInf(back.Timing.Slew[1], 1) || !math.IsInf(back.Timing.WNS, 1) {
		t.Fatalf("non-finite values mangled: %+v", back.Timing)
	}
	again, err := signoff.Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoding differs:\n first %s\nsecond %s", data, again)
	}
}

// The report copies sign-off WNS into a plain JSON field, which encoding/json
// rejects when non-finite (an unconstrained design has WNS = +Inf). A run
// whose signoff artifact carries ±Inf or NaN WNS must still encode.
func TestReportClampsNonFiniteWNS(t *testing.T) {
	cfg := Config{Circuit: "FPU", Scale: 0.05, Node: tech.N45, Mode: tech.Mode2D}
	memo := map[string]any{}
	for _, wns := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		hook := func(n *Node, exec func() (any, error)) (any, error) {
			if n.Name == "report" {
				return exec()
			}
			v, ok := memo[n.Name]
			if !ok {
				var err error
				if v, err = exec(); err != nil {
					return nil, err
				}
				memo[n.Name] = v
			}
			if n.Name == "signoff" {
				// Copying the artifact reads its gate reports: join first.
				if err := n.Wait(v); err != nil {
					return nil, err
				}
				sg := *v.(*signoffArtifact)
				timing := *sg.Timing
				timing.WNS = wns
				sg.Timing = &timing
				return &sg, nil
			}
			return v, nil
		}
		res, err := NewExecution(cfg, hook).Result(true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := EncodeResult(res); err != nil {
			t.Errorf("sign-off WNS %v: %v", wns, err)
		}
	}
}
