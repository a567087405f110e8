// Package tech defines the process-technology setups used by the study: the
// 45nm node (Nangate-like) and the projected 7nm node, each in three design
// styles — conventional 2D, transistor-level monolithic 3D (T-MI), and the
// modified-stack variant T-MI+M from the paper's supplement (Table 17, Fig 9).
//
// A Technology carries the full back-end-of-line description (metal layers
// with widths, spacings, thicknesses and calibrated effective resistivities),
// the monolithic inter-tier via (MIV) geometry, the standard-cell row grid and
// the supply voltage. The capTable generator (internal/captable) derives unit
// R/C from these numbers; the effective resistivities are calibrated so that
// the generated values land on the unit R/C the paper reports in Section 5.
package tech

import (
	"fmt"
	"strings"
)

// Node identifies a process node.
type Node int

// Supported process nodes.
const (
	N45 Node = iota // 45nm planar bulk (Nangate-like)
	N7              // 7nm multi-gate (FinFET), ITRS-2011 projection
)

func (n Node) String() string {
	switch n {
	case N45:
		return "45nm"
	case N7:
		return "7nm"
	default:
		return fmt.Sprintf("Node(%d)", int(n))
	}
}

// ParseNode parses a process-node spelling, in any case: 45 or 45nm, 7 or
// 7nm. The empty string selects N45, the zero value. Every command and the
// serving layer parse -node / node= through here.
func ParseNode(s string) (Node, error) {
	switch strings.ToLower(s) {
	case "", "45", "45nm":
		return N45, nil
	case "7", "7nm":
		return N7, nil
	}
	return N45, fmt.Errorf("unknown node %q (accepted: 45, 45nm, 7, 7nm)", s)
}

// Mode identifies a design style.
type Mode int

// Supported design styles.
const (
	Mode2D   Mode = iota // conventional single-tier design
	ModeTMI              // transistor-level monolithic 3D (PMOS bottom, NMOS top)
	ModeTMIM             // T-MI with the modified metal stack of Table 17 ("T-MI+M")
)

func (m Mode) String() string {
	switch m {
	case Mode2D:
		return "2D"
	case ModeTMI:
		return "T-MI"
	case ModeTMIM:
		return "T-MI+M"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a design-style spelling, in any case: 2d; tmi or 3d;
// tmim or 3d+m. The empty string selects Mode2D, the zero value.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "2d":
		return Mode2D, nil
	case "tmi", "3d":
		return ModeTMI, nil
	case "tmim", "3d+m":
		return ModeTMIM, nil
	}
	return Mode2D, fmt.Errorf("unknown mode %q (accepted: 2d, tmi, 3d, tmim, 3d+m)", s)
}

// Is3D reports whether the mode uses two device tiers.
func (m Mode) Is3D() bool { return m != Mode2D }

// LayerClass groups metal layers by their role in the stack (Table 3).
type LayerClass int

// Stack roles, bottom to top.
const (
	ClassM1           LayerClass = iota // first metal (MB1 and M1)
	ClassLocal                          // thin local layers
	ClassIntermediate                   // 2x intermediate layers
	ClassGlobal                         // fat global layers
)

func (c LayerClass) String() string {
	switch c {
	case ClassM1:
		return "M1"
	case ClassLocal:
		return "local"
	case ClassIntermediate:
		return "intermediate"
	case ClassGlobal:
		return "global"
	default:
		return fmt.Sprintf("LayerClass(%d)", int(c))
	}
}

// Tier identifiers for 3D stacks.
const (
	TierBottom = 0
	TierTop    = 1
)

// MetalLayer describes one routing layer.
type MetalLayer struct {
	Name      string
	Tier      int // TierBottom or TierTop; 2D designs use TierTop only
	Class     LayerClass
	Width     float64 // minimum wire width, µm
	Spacing   float64 // minimum spacing, µm
	Thickness float64 // metal thickness, µm
	// EffResistivity is the effective copper resistivity in µΩ·cm, including
	// size effects (edge scattering) and barrier thickness. Values are
	// calibrated so internal/captable reproduces the paper's Section 5 unit
	// resistances (45nm M2: 3.57 Ω/µm, M8: 0.188 Ω/µm; 7nm M2: 638 Ω/µm,
	// M8: 2.650 Ω/µm).
	EffResistivity float64
	Horizontal     bool // preferred routing direction
}

// Pitch returns the routing pitch (width + spacing) in µm.
func (l MetalLayer) Pitch() float64 { return l.Width + l.Spacing }

// CrossSection returns the wire cross-sectional area in µm².
func (l MetalLayer) CrossSection() float64 { return l.Width * l.Thickness }

// MIVSpec describes the monolithic inter-tier via.
type MIVSpec struct {
	Diameter   float64 // µm
	Height     float64 // µm (equals the inter-layer dielectric thickness)
	Resistance float64 // Ω per MIV
	Cap        float64 // fF per MIV
}

// Technology is a complete node + design-style setup.
type Technology struct {
	Node Node
	Mode Mode

	VDD float64 // supply voltage, V

	CellHeight float64 // standard-cell row height, µm
	SiteWidth  float64 // placement site width, µm

	// Layers lists the routing stack bottom-up. For 3D modes the bottom-tier
	// layer (MB1) comes first.
	Layers []MetalLayer

	MIV          MIVSpec
	ILDThickness float64 // inter-tier dielectric thickness, µm (3D only)
	DielectricK  float64 // back-end-of-line dielectric constant

	// TransistorLength is the drawn gate length in µm (Table 6).
	TransistorLength float64
}

// New builds the Technology for the given node and design style.
func New(node Node, mode Mode) *Technology {
	t := &Technology{Node: node, Mode: mode}
	switch node {
	case N45:
		t.VDD = 1.1
		t.CellHeight = 1.4
		t.SiteWidth = 0.19
		t.DielectricK = 2.5
		t.TransistorLength = 0.050
		t.ILDThickness = 0.110
		t.Layers = stack45(mode)
		if mode.Is3D() {
			t.CellHeight = 0.84 // folded cells are 40% shorter (Section 3.2)
			d := 0.070
			t.MIV = mivSpec(d, t.ILDThickness)
		}
	case N7:
		const s = 7.0 / 45.0 // 0.156X dimension scaling (Section 5)
		t.VDD = 0.7
		t.CellHeight = 0.218
		t.SiteWidth = 0.19 * s
		t.DielectricK = 2.2
		t.TransistorLength = 0.011
		t.ILDThickness = 0.050
		t.Layers = stack7(mode)
		if mode.Is3D() {
			t.CellHeight = 0.84 * s
			d := 0.0108
			t.MIV = mivSpec(d, t.ILDThickness)
		}
	default:
		panic(fmt.Sprintf("tech: unknown node %v", node))
	}
	return t
}

// mivSpec derives MIV parasitics from its cylinder geometry. The paper calls
// the MIV RC "almost negligible"; these values are indeed tiny compared with
// wire parasitics.
func mivSpec(diameter, height float64) MIVSpec {
	// Tungsten-like fill: ρ ≈ 10 µΩ·cm = 0.10 Ω·µm.
	const rho = 0.10
	area := 3.14159265 / 4 * diameter * diameter
	r := rho * height / area
	// Sidewall capacitance to the surrounding dielectric, coarse coax model.
	c := 0.02 * height / 0.110 // ≈0.02 fF at 45nm geometry, scaled by height
	return MIVSpec{Diameter: diameter, Height: height, Resistance: r, Cap: c}
}

// layerSpec is a shorthand used by the stack builders.
type layerSpec struct {
	class LayerClass
	n     int // how many layers of this class
}

// buildStack expands class counts into concrete layers using the per-class
// dimension table. names are assigned M1..Mn on the top tier; an MB1 layer is
// prepended for 3D modes.
func buildStack(node Node, specs []layerSpec, with3D bool) []MetalLayer {
	dims := classDims(node)
	var layers []MetalLayer
	if with3D {
		d := dims[ClassM1]
		layers = append(layers, MetalLayer{
			Name: "MB1", Tier: TierBottom, Class: ClassM1,
			Width: d.w, Spacing: d.s, Thickness: d.t, EffResistivity: d.rho,
			Horizontal: true,
		})
	}
	idx := 1
	horizontal := true
	for _, sp := range specs {
		d := dims[sp.class]
		for i := 0; i < sp.n; i++ {
			layers = append(layers, MetalLayer{
				Name: fmt.Sprintf("M%d", idx), Tier: TierTop, Class: sp.class,
				Width: d.w, Spacing: d.s, Thickness: d.t, EffResistivity: d.rho,
				Horizontal: horizontal,
			})
			idx++
			horizontal = !horizontal
		}
	}
	return layers
}

type classDim struct{ w, s, t, rho float64 }

// classDims returns per-class wire dimensions (µm) and calibrated effective
// resistivities (µΩ·cm); see MetalLayer.EffResistivity.
func classDims(node Node) map[LayerClass]classDim {
	switch node {
	case N45:
		return map[LayerClass]classDim{
			ClassM1:           {0.070, 0.065, 0.130, 3.50},
			ClassLocal:        {0.070, 0.070, 0.140, 3.50},
			ClassIntermediate: {0.140, 0.140, 0.280, 4.08},
			ClassGlobal:       {0.400, 0.400, 0.800, 6.02},
		}
	case N7:
		const s = 7.0 / 45.0
		return map[LayerClass]classDim{
			ClassM1:           {0.070 * s, 0.065 * s, 0.130 * s, 15.02},
			ClassLocal:        {0.070 * s, 0.070 * s, 0.140 * s, 15.02},
			ClassIntermediate: {0.140 * s, 0.140 * s, 0.280 * s, 15.02},
			ClassGlobal:       {0.400 * s, 0.400 * s, 0.800 * s, 2.06},
		}
	default:
		panic("tech: unknown node")
	}
}

// stack45 builds the 45nm metal stacks of Table 3 / Fig 9:
//
//	2D:     M1, M2-3 local, M4-6 intermediate, M7-8 global           (8 layers)
//	T-MI:   MB1, M1, M2-6 local, M7-9 intermediate, M10-11 global    (12 layers)
//	T-MI+M: MB1, M1, M2-5 local, M6-10 intermediate, M11-12 global   (13 layers)
func stack45(mode Mode) []MetalLayer {
	switch mode {
	case Mode2D:
		return buildStack(N45, []layerSpec{
			{ClassM1, 1}, {ClassLocal, 2}, {ClassIntermediate, 3}, {ClassGlobal, 2},
		}, false)
	case ModeTMI:
		return buildStack(N45, []layerSpec{
			{ClassM1, 1}, {ClassLocal, 5}, {ClassIntermediate, 3}, {ClassGlobal, 2},
		}, true)
	case ModeTMIM:
		return buildStack(N45, []layerSpec{
			{ClassM1, 1}, {ClassLocal, 4}, {ClassIntermediate, 5}, {ClassGlobal, 2},
		}, true)
	default:
		panic("tech: unknown mode")
	}
}

// stack7 mirrors stack45 at scaled dimensions.
func stack7(mode Mode) []MetalLayer {
	switch mode {
	case Mode2D:
		return buildStack(N7, []layerSpec{
			{ClassM1, 1}, {ClassLocal, 2}, {ClassIntermediate, 3}, {ClassGlobal, 2},
		}, false)
	case ModeTMI:
		return buildStack(N7, []layerSpec{
			{ClassM1, 1}, {ClassLocal, 5}, {ClassIntermediate, 3}, {ClassGlobal, 2},
		}, true)
	case ModeTMIM:
		return buildStack(N7, []layerSpec{
			{ClassM1, 1}, {ClassLocal, 4}, {ClassIntermediate, 5}, {ClassGlobal, 2},
		}, true)
	default:
		panic("tech: unknown mode")
	}
}

// Layer returns the metal layer with the given name, or nil.
func (t *Technology) Layer(name string) *MetalLayer {
	for i := range t.Layers {
		if t.Layers[i].Name == name {
			return &t.Layers[i]
		}
	}
	return nil
}

// LayersOfClass returns the layers in the given class, bottom-up.
func (t *Technology) LayersOfClass(c LayerClass) []MetalLayer {
	var out []MetalLayer
	for _, l := range t.Layers {
		if l.Class == c {
			out = append(out, l)
		}
	}
	return out
}

func (t *Technology) String() string {
	return fmt.Sprintf("%s %s (%d metal layers, VDD=%.2gV)", t.Node, t.Mode, len(t.Layers), t.VDD)
}
