package flow

import (
	"fmt"
	"strings"
	"sync"

	"tmi3d/internal/netlist"
	"tmi3d/internal/place"
)

// Node is one stage of the flow's stage graph.
type Node struct {
	// Name is the node's StageKeys entry.
	Name string
	// Deps are the nodes whose values the body may read, in the order their
	// artifact IDs feed this node's ID (internal/stage). The body can read no
	// other node's value.
	Deps []string
	// Cached marks nodes whose value is an artifact a cache tier may keep
	// (in memory, and on disk when the stage engine has a store). The four
	// uncached nodes are cheap, process-cached elsewhere (generated netlists,
	// the library check), or hold unserializable state (the cell library,
	// the gate configuration), and run once per run.
	Cached bool

	// run is the body. Its Config holds the node's StageKeys fields and
	// zeros elsewhere, so it can depend on nothing its artifact ID omits.
	run  func(cfg Config, in *inputs) (any, error)
	wire func() any // cached nodes: a new, empty artifact value to decode into
}

// Nodes is the stage graph of one flow run — Fig 1 as twelve nodes — in
// topological (pipeline) order. It is the only declaration of the flow's
// stages: Run executes it with no cache, and the stage engine executes it
// with its cache tiers plugged in (Execution's hook).
var Nodes = []Node{
	{Name: "setup", run: runSetup},
	{Name: "library", Deps: []string{"setup"}, run: runLibrary},
	{Name: "generate", Deps: []string{"setup"}, run: runGenerate},
	{Name: "wlm", Deps: []string{"setup", "library", "generate"}, Cached: true, run: runWLM,
		wire: func() any { return new(wlmArtifact) }},
	{Name: "gates", Deps: []string{"setup", "library"}, run: runGates},
	{Name: "synth", Deps: []string{"setup", "library", "generate", "wlm", "gates"}, Cached: true, run: runSynth,
		wire: func() any { return new(synthArtifact) }},
	{Name: "place", Deps: []string{"setup", "library", "wlm", "synth"}, Cached: true, run: runPlace,
		wire: func() any { return new(placeArtifact) }},
	{Name: "opt", Deps: []string{"setup", "library", "gates", "synth", "place"}, Cached: true, run: runOpt,
		wire: func() any { return new(optArtifact) }},
	{Name: "route", Deps: []string{"setup", "library", "opt"}, Cached: true, run: runRoute,
		wire: func() any { return new(routeArtifact) }},
	{Name: "signoff", Deps: []string{"setup", "library", "gates", "opt", "route"}, Cached: true, run: runSignoff,
		wire: func() any { return new(signoffArtifact) }},
	{Name: "power", Deps: []string{"setup", "library", "signoff"}, Cached: true, run: runPower,
		wire: func() any { return new(powerArtifact) }},
	{Name: "report", Deps: []string{"setup", "library", "gates", "synth", "opt", "signoff", "power"}, Cached: true, run: runReport,
		wire: func() any { return new(Result) }},
}

// Hook intercepts the resolution of every node of one run. exec runs the
// node's body, which resolves the node's Deps as it reads them; a hook that
// serves the value from a cache instead never calls it, and so skips the
// node's whole upstream cone.
type Hook func(n *Node, exec func() (any, error)) (any, error)

// Execution is one run of the stage graph for one configuration. It resolves
// nodes on demand: a node runs when a body (or Result) first reads it, and
// its value is kept until every node that lists it in Deps has read it. So
// each node runs at most once per run, and a netlist lives no longer than
// its last reader needs it.
//
// The stages run one after another on the caller's goroutine. Beside them,
// each gating stage (synth, opt, signoff) checks its netlist on a goroutine
// of its own (gatePair) while the next stage goes on. Result, and the
// Implementation accessor it returns, join every gate their resolutions
// started before they return, on success, error and panic alike, so no gate
// outlives its call. A run that fails after a gate failed fails with the
// error of the first failing gate in pipeline order, the error that would
// have stopped it had the gate run before the next stage. An Execution is
// not safe for concurrent use.
type Execution struct {
	cfg     Config
	hook    Hook
	nodes   []Node
	vals    map[string]any
	readers map[string]int // reads each node's value still has to serve
	prof    *profile
	gates   []*gatePair // of every gated value resolved, in pipeline order
}

// NewExecution prepares a run of the stage graph for cfg (normalized). A nil
// hook executes every node; the stage engine passes its cache lookup.
func NewExecution(cfg Config, hook Hook) *Execution {
	// Result reads report once, and its implementation accessor signoff
	// once, besides their readers in the graph.
	readers := map[string]int{"report": 1, "signoff": 1}
	for i := range Nodes {
		for _, dep := range Nodes[i].Deps {
			readers[dep]++
		}
	}
	return &Execution{
		cfg:     cfg.Normalized(),
		hook:    hook,
		nodes:   Nodes,
		vals:    make(map[string]any, len(Nodes)),
		readers: readers,
		prof:    newProfile(),
	}
}

// read returns the named node's value to one of its readers, resolving it on
// the first read and dropping it after the last.
func (x *Execution) read(name string) (any, error) {
	v, err := x.resolve(name)
	if err != nil {
		return nil, err
	}
	if x.readers[name]--; x.readers[name] == 0 {
		delete(x.vals, name)
	}
	return v, nil
}

// resolve returns the value of the named node, running it — and, unless the
// hook serves it, its upstream cone — if this run has not yet.
func (x *Execution) resolve(name string) (any, error) {
	if v, ok := x.vals[name]; ok {
		return v, nil
	}
	var n *Node
	for i := range x.nodes {
		if x.nodes[i].Name == name {
			n = &x.nodes[i]
			break
		}
	}
	if n == nil {
		return nil, fmt.Errorf("flow: no stage %q", name)
	}
	exec := func() (any, error) {
		// A gate that has failed already stops the run before the next
		// body: the stages after it would build on a netlist it refused.
		for _, g := range x.gates {
			if err := g.failed(); err != nil {
				return nil, err
			}
		}
		in := &inputs{read: x.read, node: n, prof: x.prof}
		v, err := n.run(x.cfg.only(StageKeys[n.Name]), in)
		if in.err != nil {
			return nil, in.err
		}
		return v, err
	}
	var v any
	var err error
	if x.hook != nil {
		v, err = x.hook(n, exec)
	} else {
		v, err = exec()
	}
	if err != nil {
		return nil, err
	}
	if a, ok := v.(gatedArtifact); ok {
		x.gates = append(x.gates, a.checks())
	}
	x.vals[name] = v
	return v, nil
}

// joined runs f, which resolves nodes, and then joins every gate those
// resolutions started or came upon, whether f returned or panicked. The
// first gate in pipeline order that failed sets the error: a gate's panic is
// re-raised, and a gate's error replaces f's error or panic, which came from
// a stage the gate would have kept from running.
func (x *Execution) joined(f func() error) (err error) {
	from := len(x.gates)
	returned := false
	defer func() {
		gates := x.gates[from:]
		for _, g := range gates {
			_ = g.wait() // every gate has finished before any is re-raised
		}
		for _, g := range gates {
			if gerr := g.join(); gerr != nil {
				if !returned {
					recover()
				}
				err = gerr
				return
			}
		}
	}()
	err = f()
	returned = true
	return err
}

// Result resolves the report and attaches what its wire form excludes: the
// final implementation, as Result.Implementation, and this run's stage
// profile.
//
// A run that resolved signoff on its way to the report (every run without a
// cache, and an engine run that executed the report) hands the accessor the
// signoff netlist and placement snapshot and lets the route, timing and
// reports go. A run whose report a cache served never resolved signoff: the
// accessor keeps the Execution and reads signoff through the run's hook on
// its first call, consuming Result's read of it, so a caller that never asks
// reads one artifact. shared says the signoff artifact outlives the run in a
// cache tier, so the accessor hands out its own copy of the netlist; without
// a cache the caller takes it directly.
func (x *Execution) Result(shared bool) (*Result, error) {
	var rv any
	if err := x.joined(func() (err error) {
		rv, err = x.read("report")
		return err
	}); err != nil {
		return nil, err
	}
	res := *rv.(*Result)
	res.StageTimes = x.prof.times()
	load := func() (any, error) { return x.read("signoff") }
	if _, ok := x.vals["signoff"]; ok {
		sv, _ := load() // resolved: the read cannot fail
		sg := sv.(*signoffArtifact)
		kept := &signoffArtifact{Design: sg.Design, Snap: sg.Snap}
		load = func() (any, error) { return kept, nil }
	}
	impl := sync.OnceValues(func() (*place.Placement, error) {
		var sv any
		if err := x.joined(func() (err error) {
			sv, err = load()
			return err
		}); err != nil {
			return nil, err
		}
		sg := sv.(*signoffArtifact)
		d := sg.Design
		if shared {
			d = d.Clone()
		}
		return sg.Snap.Restore(d), nil
	})
	res.Implementation = func() (*netlist.Design, *place.Placement, error) {
		pl, err := impl()
		if err != nil {
			return nil, nil, err
		}
		return pl.Design, pl, nil
	}
	return &res, nil
}

// inputs is a stage body's view of its run: the values of its node's Deps,
// each resolved when the body reads it, and the run's profile. A body reads
// each input it needs once, then checks err once before using any of them;
// after an error every further read returns nil. inputs keeps no values, so
// a body that has taken what it needs from an input can let it go.
type inputs struct {
	// read is the run's Execution.read. Reading a dependency may run that
	// node's body, which sees its own node's key fields, not this one's.
	read func(name string) (any, error)
	node *Node
	done uint64 // bit i set: node.Deps[i] has been read
	prof *profile
	err  error
}

// get returns the value of one of the node's Deps. Asking for any other node
// is an error, so a body consumes exactly what its Deps — and with them its
// artifact ID — declare.
func (in *inputs) get(name string) any {
	if in.err != nil {
		return nil
	}
	for i, dep := range in.node.Deps {
		if dep != name {
			continue
		}
		if in.done&(1<<i) != 0 {
			in.err = fmt.Errorf("flow: stage %s reads %s twice", in.node.Name, name)
			return nil
		}
		in.done |= 1 << i
		var v any
		v, in.err = in.read(name)
		return v
	}
	in.err = fmt.Errorf("flow: stage %s reads %s, which is not among its Deps (%s)",
		in.node.Name, name, strings.Join(in.node.Deps, ", "))
	return nil
}

func (in *inputs) setup() *setupValue {
	v, _ := in.get("setup").(*setupValue)
	return v
}

func (in *inputs) library() *libraryValue {
	v, _ := in.get("library").(*libraryValue)
	return v
}

func (in *inputs) generate() *netlist.Design {
	v, _ := in.get("generate").(*netlist.Design)
	return v
}

func (in *inputs) wlm() *wlmArtifact {
	v, _ := in.get("wlm").(*wlmArtifact)
	return v
}

func (in *inputs) gates() *gateSet {
	v, _ := in.get("gates").(*gateSet)
	return v
}

func (in *inputs) synth() *synthArtifact {
	v, _ := in.get("synth").(*synthArtifact)
	return v
}

func (in *inputs) place() *placeArtifact {
	v, _ := in.get("place").(*placeArtifact)
	return v
}

func (in *inputs) opt() *optArtifact {
	v, _ := in.get("opt").(*optArtifact)
	return v
}

func (in *inputs) route() *routeArtifact {
	v, _ := in.get("route").(*routeArtifact)
	return v
}

func (in *inputs) signoff() *signoffArtifact {
	v, _ := in.get("signoff").(*signoffArtifact)
	return v
}

func (in *inputs) power() *powerArtifact {
	v, _ := in.get("power").(*powerArtifact)
	return v
}
