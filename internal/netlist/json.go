package netlist

import "encoding/json"

// JSON codec for Design — the staged engine's netlist artifact format. The
// exported topology round-trips exactly; the unexported name index is
// derivable (netIndex[n.Name] = i for every net) and is rebuilt on decode,
// so a decoded design behaves identically to the original, AddNet dedup
// included. Maps encode with sorted keys under encoding/json, so equal
// designs encode to identical bytes.

// netJSON is the canonical wire form of a Net. Its fields are Net's, so the
// two convert into each other (the compiler keeps them in step), and the
// design codec moves every net through one []netJSON slice — one encoding/json
// pass over the whole net list instead of a Marshaler call per net. nil and
// empty sink lists both encode as [] and decode to nil, so a design and its
// Clone (which normalizes nil slices to empty) encode to identical bytes —
// equal designs must yield equal artifact bytes regardless of how their sink
// slices were built.
type netJSON struct {
	Name   string   `json:"name"`
	Driver PinRef   `json:"driver"`
	Sinks  []PinRef `json:"sinks"`
}

// netsToWire converts the net list to its wire form with never-null sinks.
func netsToWire(nets []Net) []netJSON {
	if nets == nil {
		return nil
	}
	out := make([]netJSON, len(nets))
	for i := range nets {
		out[i] = netJSON(nets[i])
		if out[i].Sinks == nil {
			out[i].Sinks = []PinRef{}
		}
	}
	return out
}

// netsFromWire restores the net list, normalizing empty sink lists to nil.
func netsFromWire(in []netJSON) []Net {
	if in == nil {
		return nil
	}
	out := make([]Net, len(in))
	for i := range in {
		out[i] = Net(in[i])
		if len(out[i].Sinks) == 0 {
			out[i].Sinks = nil
		}
	}
	return out
}

type designJSON struct {
	Name          string         `json:"name"`
	Instances     []Instance     `json:"instances"`
	Nets          []netJSON      `json:"nets"`
	PIs           map[string]int `json:"pis"`
	POs           map[string]int `json:"pos"`
	ClockNet      int            `json:"clock_net"`
	TargetClockPs float64        `json:"target_clock_ps"`
}

// MarshalJSON encodes the design including sentinel driver values (-1 =
// design port, -2 = undriven).
func (d *Design) MarshalJSON() ([]byte, error) {
	return json.Marshal(designJSON{
		Name:          d.Name,
		Instances:     d.Instances,
		Nets:          netsToWire(d.Nets),
		PIs:           d.PIs,
		POs:           d.POs,
		ClockNet:      d.ClockNet,
		TargetClockPs: d.TargetClockPs,
	})
}

// UnmarshalJSON restores a design written by MarshalJSON, rebuilding the
// net name index.
func (d *Design) UnmarshalJSON(b []byte) error {
	var in designJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	d.Name = in.Name
	d.Instances = in.Instances
	d.Nets = netsFromWire(in.Nets)
	d.PIs = in.PIs
	d.POs = in.POs
	if d.PIs == nil {
		d.PIs = map[string]int{}
	}
	if d.POs == nil {
		d.POs = map[string]int{}
	}
	d.ClockNet = in.ClockNet
	d.TargetClockPs = in.TargetClockPs
	d.netIndex = make(map[string]int, len(d.Nets))
	for i := range d.Nets {
		d.netIndex[d.Nets[i].Name] = i
	}
	return nil
}
