// Package netlist provides the gate-level design representation shared by
// synthesis, placement, routing, timing and power analysis: instances of
// library functions connected by nets, with primary inputs/outputs and a
// single clock domain (the benchmark circuits of the paper are all
// single-clock synchronous designs).
//
// Before technology mapping an instance carries only its function name
// ("NAND2") — synthesis binds it to a concrete library cell ("NAND2_X2").
package netlist

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
)

// PinRef identifies one pin of one instance.
type PinRef struct {
	Inst int    // instance index; -1 for design ports
	Pin  string // pin name; for ports, the port name
}

// Net connects one driver to its sinks.
type Net struct {
	Name string
	// Driver is the source pin: an instance output, or a primary input
	// (Inst = -1).
	Driver PinRef
	// Sinks are instance input pins and primary outputs (Inst = -1).
	Sinks []PinRef
}

// Fanout returns the number of sink pins.
func (n *Net) Fanout() int { return len(n.Sinks) }

// Instance is a gate instance.
type Instance struct {
	Name string
	// Func is the logical function (cellgen base name, e.g. "XOR2").
	Func string
	// CellName is the bound library cell after technology mapping
	// (e.g. "XOR2_X2"); empty before mapping.
	CellName string
	// Pins binds pin names to net indices, sorted by name.
	Pins Pins
	// IsBuffer marks buffers/inverters inserted by optimization (the paper's
	// "#buffers" metric counts inverting and non-inverting buffers).
	IsBuffer bool
}

// Pin binds one instance pin to a net index.
type Pin struct {
	Name string
	Net  int
}

// Pins is an instance's pin list: sorted by name, no name twice. Ranging
// over it visits the pins in name order. Cell pin lists are a handful long,
// so lookups scan.
type Pins []Pin

// Net returns the net bound to the named pin; ok is false (and the net -1)
// when the pin is unbound.
func (p Pins) Net(name string) (net int, ok bool) {
	for i := range p {
		if p[i].Name == name {
			return p[i].Net, true
		}
	}
	return -1, false
}

// Set binds the named pin to net, inserting the pin at its sorted place if it
// is not bound yet. An insertion reallocates when the list is full, so a pin
// list cut from a shared arena (see Design.Clone) never grows into its
// neighbour.
func (p *Pins) Set(name string, net int) {
	s := *p
	i := 0
	for i < len(s) && s[i].Name < name {
		i++
	}
	if i < len(s) && s[i].Name == name {
		s[i].Net = net
		return
	}
	s = append(s, Pin{})
	copy(s[i+1:], s[i:])
	s[i] = Pin{Name: name, Net: net}
	*p = s
}

// Design is a complete gate-level netlist.
type Design struct {
	Name      string
	Instances []Instance
	Nets      []Net
	// PIs and POs map port names to net indices.
	PIs map[string]int
	POs map[string]int
	// ClockNet is the net index of the clock, or -1.
	ClockNet int
	// TargetClockPs is the synthesis/layout target clock period in ps.
	TargetClockPs float64

	// netIndex maps net names to indices. It is derived from Nets and stays
	// off the wire: decoding leaves it nil, as Clone does, and AddNet builds
	// it on first use. A nil index is never filled in by a
	// read, because cached designs are read by concurrent flows.
	netIndex map[string]int
}

// New creates an empty design.
func New(name string) *Design {
	return &Design{
		Name:     name,
		PIs:      map[string]int{},
		POs:      map[string]int{},
		ClockNet: -1,
		netIndex: map[string]int{},
	}
}

// indexNets builds the net-name index; on a repeated name the last net wins,
// as NetByName's scan does.
func (d *Design) indexNets() {
	d.netIndex = make(map[string]int, len(d.Nets))
	for i := range d.Nets {
		d.netIndex[d.Nets[i].Name] = i
	}
}

// AddNet creates (or returns) the net with the given name.
func (d *Design) AddNet(name string) int {
	if d.netIndex == nil {
		d.indexNets()
	}
	if i, ok := d.netIndex[name]; ok {
		return i
	}
	i := len(d.Nets)
	d.Nets = append(d.Nets, Net{Name: name, Driver: PinRef{Inst: -2}})
	d.netIndex[name] = i
	return i
}

// NetByName returns the index of a named net, or -1. Without an index (a
// clone no mutator has touched) it scans the nets.
func (d *Design) NetByName(name string) int {
	if d.netIndex != nil {
		if i, ok := d.netIndex[name]; ok {
			return i
		}
		return -1
	}
	for i := len(d.Nets) - 1; i >= 0; i-- {
		if d.Nets[i].Name == name {
			return i
		}
	}
	return -1
}

// AddInstance appends a gate. pins maps pin names to net names; the driver
// output pin is recorded on the net.
func (d *Design) AddInstance(name, fn string, pins map[string]string, outputs ...string) int {
	idx := len(d.Instances)
	inst := Instance{Name: name, Func: fn, Pins: make(Pins, 0, len(pins))}
	outSet := map[string]bool{}
	for _, o := range outputs {
		outSet[o] = true
	}
	// Iterate pins in sorted order: net indices and sink order must not
	// depend on map iteration, or two processes build different (if
	// isomorphic) netlists and downstream results stop being reproducible.
	names := make([]string, 0, len(pins))
	for pin := range pins {
		names = append(names, pin)
	}
	sort.Strings(names)
	for _, pin := range names {
		ni := d.AddNet(pins[pin])
		inst.Pins = append(inst.Pins, Pin{Name: pin, Net: ni})
		if outSet[pin] {
			d.Nets[ni].Driver = PinRef{Inst: idx, Pin: pin}
		} else {
			d.Nets[ni].Sinks = append(d.Nets[ni].Sinks, PinRef{Inst: idx, Pin: pin})
		}
	}
	d.Instances = append(d.Instances, inst)
	return idx
}

// AddPI declares a primary input driving the named net.
func (d *Design) AddPI(port, netName string) {
	ni := d.AddNet(netName)
	d.Nets[ni].Driver = PinRef{Inst: -1, Pin: port}
	d.PIs[port] = ni
}

// AddPO declares a primary output sinking the named net.
func (d *Design) AddPO(port, netName string) {
	ni := d.AddNet(netName)
	d.Nets[ni].Sinks = append(d.Nets[ni].Sinks, PinRef{Inst: -1, Pin: port})
	d.POs[port] = ni
}

// SetClock marks the clock net (created if needed).
func (d *Design) SetClock(netName string) {
	d.ClockNet = d.AddNet(netName)
	if _, ok := d.PIs["clk"]; !ok {
		d.Nets[d.ClockNet].Driver = PinRef{Inst: -1, Pin: "clk"}
		d.PIs["clk"] = d.ClockNet
	}
}

// Stats summarizes a design the way Table 12 reports it.
type Stats struct {
	NumCells      int     `json:"num_cells"`
	NumNets       int     `json:"num_nets"`
	NumBuffers    int     `json:"num_buffers"`
	NumSeq        int     `json:"num_seq"`
	AverageFanout float64 `json:"average_fanout"`
}

// Stats computes design statistics. Average fanout follows the usual
// definition: sink pins per net, over nets with a real driver, excluding the
// clock net.
func (d *Design) Stats() Stats {
	s := Stats{NumCells: len(d.Instances)}
	for i := range d.Instances {
		if d.Instances[i].IsBuffer {
			s.NumBuffers++
		}
		if d.Instances[i].Func == "DFF" {
			s.NumSeq++
		}
	}
	sinks := 0
	for i := range d.Nets {
		if i == d.ClockNet {
			continue
		}
		s.NumNets++
		sinks += len(d.Nets[i].Sinks)
	}
	if s.NumNets > 0 {
		s.AverageFanout = float64(sinks) / float64(s.NumNets)
	}
	return s
}

// Violation kinds reported by Violations.
const (
	// KindNoDriver marks a net whose Driver was never set.
	KindNoDriver = "no-driver"
	// KindBadSink marks a sink referencing an out-of-range instance.
	KindBadSink = "bad-sink"
	// KindNoPins marks an instance with no pins.
	KindNoPins = "no-pins"
	// KindBadPin marks an instance pin referencing an out-of-range net.
	KindBadPin = "bad-pin"
	// KindUnlistedPin marks an instance pin whose net records it neither as
	// the driver nor as a sink — the fingerprint of an overwritten driver
	// (two outputs bound to one net).
	KindUnlistedPin = "unlisted-pin"
	// KindBadPort marks a PI/PO port map entry that disagrees with its
	// net's connectivity.
	KindBadPort = "bad-port"
)

// Violation is one structural-integrity violation. Net and Inst are indices
// into Nets/Instances, or -1 when not applicable.
type Violation struct {
	Kind string
	Net  int
	Inst int
	Msg  string
}

func (v Violation) String() string { return v.Msg }

// Violations checks the structural invariants — every net has exactly one
// recorded driver, every pin and sink index is in range, every instance pin
// appears on its net, port maps agree with net connectivity — and returns
// every violation found. It is the structural sweep behind the lint engine's
// ERC-STRUCT rule (implemented here rather than in internal/lint so Validate
// can share it without an import cycle).
func (d *Design) Violations() []Violation {
	var out []Violation
	for i := range d.Nets {
		n := &d.Nets[i]
		if n.Driver.Inst == -2 {
			out = append(out, Violation{KindNoDriver, i, -1,
				fmt.Sprintf("net %q (%d) has no driver", n.Name, i)})
		}
		// Nets with no sinks are legal: generators leave unused carries
		// and helper nets dangling, exactly as RTL does before synthesis
		// pruning. They carry no timing endpoints and no switching load.
		for _, s := range n.Sinks {
			if s.Inst >= len(d.Instances) {
				out = append(out, Violation{KindBadSink, i, s.Inst,
					fmt.Sprintf("net %q sink instance %d out of range", n.Name, s.Inst)})
			}
		}
	}
	// Every instance pin must be recorded on some net (as driver or sink).
	// An unlisted pin means the net's driver was overwritten — e.g. two
	// outputs bound to the same net. The recorded pins of instance i are
	// recorded[first[i]:first[i+1]], a flat table filled in two passes.
	first := make([]int32, len(d.Instances)+1)
	eachRef := func(visit func(r PinRef)) {
		for i := range d.Nets {
			if r := d.Nets[i].Driver; r.Inst >= 0 && r.Inst < len(d.Instances) {
				visit(r)
			}
			for _, r := range d.Nets[i].Sinks {
				if r.Inst >= 0 && r.Inst < len(d.Instances) {
					visit(r)
				}
			}
		}
	}
	eachRef(func(r PinRef) { first[r.Inst+1]++ })
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	recorded := make([]string, first[len(d.Instances)])
	fill := make([]int32, len(d.Instances))
	copy(fill, first)
	eachRef(func(r PinRef) {
		recorded[fill[r.Inst]] = r.Pin
		fill[r.Inst]++
	})
	recordedOn := func(i int, pin string) bool {
		for _, p := range recorded[first[i]:first[i+1]] {
			if p == pin {
				return true
			}
		}
		return false
	}
	for i := range d.Instances {
		inst := &d.Instances[i]
		if len(inst.Pins) == 0 {
			out = append(out, Violation{KindNoPins, -1, i,
				fmt.Sprintf("instance %q (%d) has no pins", inst.Name, i)})
			continue
		}
		for _, p := range inst.Pins {
			if p.Net < 0 || p.Net >= len(d.Nets) {
				out = append(out, Violation{KindBadPin, p.Net, i,
					fmt.Sprintf("instance %q pin %s: net %d out of range", inst.Name, p.Name, p.Net)})
				continue
			}
			if !recordedOn(i, p.Name) {
				out = append(out, Violation{KindUnlistedPin, p.Net, i,
					fmt.Sprintf("instance %q pin %s not recorded on net %q (driver overwritten?)",
						inst.Name, p.Name, d.Nets[p.Net].Name)})
			}
		}
	}
	for _, port := range sortedKeys(d.PIs) {
		ni := d.PIs[port]
		if ni < 0 || ni >= len(d.Nets) {
			out = append(out, Violation{KindBadPort, ni, -1,
				fmt.Sprintf("primary input %q: net %d out of range", port, ni)})
			continue
		}
		if drv := d.Nets[ni].Driver; drv != (PinRef{Inst: -1, Pin: port}) {
			out = append(out, Violation{KindBadPort, ni, -1,
				fmt.Sprintf("primary input %q is not the driver of net %q", port, d.Nets[ni].Name)})
		}
	}
	for _, port := range sortedKeys(d.POs) {
		ni := d.POs[port]
		if ni < 0 || ni >= len(d.Nets) {
			out = append(out, Violation{KindBadPort, ni, -1,
				fmt.Sprintf("primary output %q: net %d out of range", port, ni)})
			continue
		}
		sunk := false
		for _, s := range d.Nets[ni].Sinks {
			if s == (PinRef{Inst: -1, Pin: port}) {
				sunk = true
				break
			}
		}
		if !sunk {
			out = append(out, Violation{KindBadPort, ni, -1,
				fmt.Sprintf("primary output %q is not a sink of net %q", port, d.Nets[ni].Name)})
		}
	}
	return out
}

// Validate is the thin error wrapper over Violations kept for existing
// callers: it reports every structural violation in one error, or nil when
// the design is clean.
func (d *Design) Validate() error {
	vs := d.Violations()
	if len(vs) == 0 {
		return nil
	}
	msg := vs[0].Msg
	for _, v := range vs[1:] {
		msg += "; " + v.Msg
	}
	return fmt.Errorf("netlist %s: %d structural violations: %s", d.Name, len(vs), msg)
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SortedPIs returns primary input names, sorted (deterministic iteration).
func (d *Design) SortedPIs() []string {
	out := make([]string, 0, len(d.PIs))
	for k := range d.PIs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SortedPOs returns primary output names, sorted (deterministic iteration).
func (d *Design) SortedPOs() []string { return sortedKeys(d.POs) }

// bufferPrefix starts the name of every instance InsertBuffer makes, which
// is how ParseVerilog gets IsBuffer back.
const bufferPrefix = "optbuf_"

// InsertBuffer splits a net: a new buffering instance of function fn (bound
// to cellName) is driven by the net, and the listed sink pins move onto the
// buffer's output net. It returns the new net and instance indices. The new
// net is always appended, even if a net of its name exists; the net-name
// index, when one is built, then names the new net, as NetByName's scan
// without an index does.
func (d *Design) InsertBuffer(net int, moved []PinRef, fn, cellName string) (newNet, instIdx int) {
	name := bufferPrefix + strconv.Itoa(len(d.Instances))
	newNet, instIdx = len(d.Nets), len(d.Instances)
	d.Nets = append(d.Nets, Net{Name: name + "_z", Driver: PinRef{Inst: instIdx, Pin: "Z"}})
	if d.netIndex != nil {
		d.netIndex[name+"_z"] = newNet
	}
	d.Instances = append(d.Instances, Instance{
		Name: name, Func: fn, CellName: cellName, IsBuffer: true,
		Pins: Pins{{Name: "A", Net: net}, {Name: "Z", Net: newNet}},
	})

	var keep []PinRef
	for _, s := range d.Nets[net].Sinks {
		if !containsRef(moved, s) {
			keep = append(keep, s)
			continue
		}
		d.Nets[newNet].Sinks = append(d.Nets[newNet].Sinks, s)
		if s.Inst >= 0 {
			d.Instances[s.Inst].Pins.Set(s.Pin, newNet)
		} else {
			// A primary output moved onto the buffered net.
			d.POs[s.Pin] = newNet
		}
	}
	keep = append(keep, PinRef{Inst: instIdx, Pin: "A"})
	d.Nets[net].Sinks = keep
	return newNet, instIdx
}

// containsRef reports whether refs holds r. Move lists are a fanout group
// long, so a scan that compares instance indices first beats hashing.
func containsRef(refs []PinRef, r PinRef) bool {
	for _, x := range refs {
		if x.Inst == r.Inst && x.Pin == r.Pin {
			return true
		}
	}
	return false
}

// RemoveInstance deletes an instance, disconnecting every pin from its net
// first, then swap-filling the hole with the last instance (all net PinRefs
// to the moved instance are renumbered). Indices other than the removed one
// and the last one stay valid.
func (d *Design) RemoveInstance(i int) error {
	if i < 0 || i >= len(d.Instances) {
		return fmt.Errorf("netlist: remove instance %d out of range", i)
	}
	for _, p := range d.Instances[i].Pins {
		ni := p.Net
		if ni < 0 || ni >= len(d.Nets) {
			continue
		}
		ref := PinRef{Inst: i, Pin: p.Name}
		n := &d.Nets[ni]
		if n.Driver == ref {
			n.Driver = PinRef{Inst: -2}
		} else {
			removeSinkRef(n, ref)
		}
	}
	last := len(d.Instances) - 1
	if i != last {
		d.Instances[i] = d.Instances[last]
		for _, p := range d.Instances[i].Pins {
			if p.Net < 0 || p.Net >= len(d.Nets) {
				continue
			}
			n := &d.Nets[p.Net]
			old := PinRef{Inst: last, Pin: p.Name}
			if n.Driver == old {
				n.Driver = PinRef{Inst: i, Pin: p.Name}
			}
			for k := range n.Sinks {
				if n.Sinks[k] == old {
					n.Sinks[k] = PinRef{Inst: i, Pin: p.Name}
				}
			}
		}
	}
	d.Instances = d.Instances[:last]
	return nil
}

// RemoveNet deletes a net that no pin references anymore (disconnect the
// driver and sinks first — e.g. via RemoveInstance). The hole is swap-filled
// with the last net and every reference to the moved net (instance pins,
// port maps, clock, name index if built) is renumbered.
func (d *Design) RemoveNet(ni int) error {
	if ni < 0 || ni >= len(d.Nets) {
		return fmt.Errorf("netlist: remove net %d out of range", ni)
	}
	n := &d.Nets[ni]
	if n.Driver.Inst >= 0 || n.Driver.Inst == -1 || len(n.Sinks) > 0 {
		return fmt.Errorf("netlist: net %q still connected (driver %v, %d sinks)",
			n.Name, n.Driver, len(n.Sinks))
	}
	if d.ClockNet == ni {
		return fmt.Errorf("netlist: cannot remove the clock net %q", n.Name)
	}
	if d.netIndex != nil {
		delete(d.netIndex, n.Name)
	}
	last := len(d.Nets) - 1
	if ni != last {
		moved := d.Nets[last]
		d.Nets[ni] = moved
		if d.netIndex != nil {
			d.netIndex[moved.Name] = ni
		}
		if moved.Driver.Inst >= 0 {
			d.Instances[moved.Driver.Inst].Pins.Set(moved.Driver.Pin, ni)
		}
		for _, s := range moved.Sinks {
			if s.Inst >= 0 {
				d.Instances[s.Inst].Pins.Set(s.Pin, ni)
			}
		}
		for port, pn := range d.PIs {
			if pn == last {
				d.PIs[port] = ni
			}
		}
		for port, pn := range d.POs {
			if pn == last {
				d.POs[port] = ni
			}
		}
		if d.ClockNet == last {
			d.ClockNet = ni
		}
	}
	d.Nets = d.Nets[:last]
	return nil
}

func removeSinkRef(n *Net, ref PinRef) {
	for k := range n.Sinks {
		if n.Sinks[k] == ref {
			n.Sinks = append(n.Sinks[:k], n.Sinks[k+1:]...)
			return
		}
	}
}

// Clone deep-copies the design (used to branch 2D vs T-MI implementations
// from one synthesized netlist, and to give each mutating stage its own
// copy). The copy is four flat allocations besides the port maps: the
// instances, one arena holding every instance's pins, the nets, and one
// arena holding every net's sinks. Each pin and sink list is a subslice of
// its arena capped at its own length, so an append on one reallocates
// instead of writing into its neighbour. The net-name index is derived
// state and is not copied; AddNet rebuilds it if the copy is mutated.
func (d *Design) Clone() *Design {
	nPins, nSinks := 0, 0
	for i := range d.Instances {
		nPins += len(d.Instances[i].Pins)
	}
	for i := range d.Nets {
		nSinks += len(d.Nets[i].Sinks)
	}
	out := &Design{
		Name:          d.Name,
		Instances:     make([]Instance, len(d.Instances)),
		Nets:          make([]Net, len(d.Nets)),
		PIs:           clonePorts(d.PIs),
		POs:           clonePorts(d.POs),
		ClockNet:      d.ClockNet,
		TargetClockPs: d.TargetClockPs,
	}
	pins := make([]Pin, 0, nPins)
	for i, inst := range d.Instances {
		if inst.Pins != nil {
			lo := len(pins)
			pins = append(pins, inst.Pins...)
			inst.Pins = pins[lo:len(pins):len(pins)]
		}
		out.Instances[i] = inst
	}
	sinks := make([]PinRef, 0, nSinks)
	for i, n := range d.Nets {
		lo := len(sinks)
		sinks = append(sinks, n.Sinks...)
		n.Sinks = sinks[lo:len(sinks):len(sinks)]
		out.Nets[i] = n
	}
	return out
}

// clonePorts copies a port map; the copy is never nil.
func clonePorts(m map[string]int) map[string]int {
	if m == nil {
		return map[string]int{}
	}
	return maps.Clone(m)
}
