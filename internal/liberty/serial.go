package liberty

import (
	"encoding/json"
	"fmt"
	"sort"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/tech"
)

// JSON serialization of characterized libraries. Characterization is
// deterministic but takes ~30s per library, so — like the .lib artifacts of
// a real flow — the characterized data is generated once (cmd/charlib) and
// embedded; Default reads only the embedded artifacts.

type lutJSON struct {
	Slews []float64   `json:"slews"`
	Loads []float64   `json:"loads"`
	V     [][]float64 `json:"v"`
}

type arcJSON struct {
	From    string  `json:"from"`
	To      string  `json:"to"`
	Negated bool    `json:"negated,omitempty"`
	Delay   lutJSON `json:"delay"`
	OutSlew lutJSON `json:"outslew"`
	Energy  lutJSON `json:"energy"`
}

type cellJSON struct {
	Name     string             `json:"name"`
	Base     string             `json:"base"`
	Strength int                `json:"strength"`
	Area     float64            `json:"area"`
	Width    float64            `json:"width"`
	PinCap   map[string]float64 `json:"pincap"`
	Arcs     []arcJSON          `json:"arcs"`
	Leakage  float64            `json:"leakage"`
	Setup    float64            `json:"setup,omitempty"`
	Hold     float64            `json:"hold,omitempty"`
	NumMIV   int                `json:"nmiv,omitempty"`
}

type libJSON struct {
	Node  int        `json:"node"`
	Mode  int        `json:"mode"`
	VDD   float64    `json:"vdd"`
	Cells []cellJSON `json:"cells"`
}

func lutOut(l *LUT) lutJSON { return lutJSON{Slews: l.Slews, Loads: l.Loads, V: l.V} }

func lutIn(j lutJSON) *LUT { return &LUT{Slews: j.Slews, Loads: j.Loads, V: j.V} }

// EncodeJSON serializes the library.
func (lib *Library) EncodeJSON() ([]byte, error) {
	out := libJSON{Node: int(lib.Node), Mode: int(lib.Mode), VDD: lib.VDD}
	// Cells is a map: encode in sorted-name order so the artifact bytes are
	// reproducible across regenerations of the embedded library.
	names := make([]string, 0, len(lib.Cells))
	for name := range lib.Cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := lib.Cells[name]
		cj := cellJSON{
			Name: c.Name, Base: c.Base, Strength: c.Strength,
			Area: c.Area, Width: c.Width, PinCap: c.PinCap,
			Leakage: c.Leakage, Setup: c.Setup, Hold: c.Hold, NumMIV: c.NumMIV,
		}
		for _, a := range c.Arcs {
			cj.Arcs = append(cj.Arcs, arcJSON{
				From: a.From, To: a.To, Negated: a.Negated,
				Delay: lutOut(a.Delay), OutSlew: lutOut(a.OutSlew), Energy: lutOut(a.Energy),
			})
		}
		out.Cells = append(out.Cells, cj)
	}
	return json.Marshal(out)
}

// DecodeJSON rebuilds a library, re-binding each cell to its cellgen
// definition (ports, logic function, transistor network).
func DecodeJSON(data []byte) (*Library, error) {
	var in libJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("liberty: decode: %w", err)
	}
	lib := &Library{
		Node:  tech.Node(in.Node),
		Mode:  tech.Mode(in.Mode),
		VDD:   in.VDD,
		Cells: map[string]*Cell{},
	}
	for _, cj := range in.Cells {
		def, ok := cellgen.Template(cj.Base)
		if !ok {
			return nil, fmt.Errorf("liberty: decode: unknown cell base %q", cj.Base)
		}
		c := &Cell{
			Name: cj.Name, Base: cj.Base, Strength: cj.Strength,
			Area: cj.Area, Width: cj.Width, PinCap: cj.PinCap,
			Inputs: def.Inputs, Outputs: def.Outputs,
			Leakage: cj.Leakage, Setup: cj.Setup, Hold: cj.Hold,
			Seq: def.Seq, Clock: def.Clock, Data: def.Data,
			NumMIV: cj.NumMIV,
		}
		defCopy := def
		c.Def = &defCopy
		for _, a := range cj.Arcs {
			c.Arcs = append(c.Arcs, TimingArc{
				From: a.From, To: a.To, Negated: a.Negated,
				Delay: lutIn(a.Delay), OutSlew: lutIn(a.OutSlew), Energy: lutIn(a.Energy),
			})
		}
		lib.Cells[c.Name] = c
	}
	lib.index()
	return lib, nil
}
