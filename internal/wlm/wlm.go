// Package wlm implements wire load models — the statistical net-length
// estimates that guide synthesis optimization (Section 3.4). A model maps a
// net's fanout to an expected wirelength, from which unit-length R/C give
// the net parasitics before any layout exists.
//
// T-MI designs get their own models: folding shrinks the footprint ~40%, so
// expected wirelengths scale by roughly the square root of the area ratio —
// this is exactly the adjustment the paper feeds back into synthesis, and
// Table 15 measures what happens without it.
package wlm

import (
	"math"

	"tmi3d/internal/captable"
	"tmi3d/internal/tech"
)

// Model is a wire load model.
type Model struct {
	Node tech.Node
	Mode tech.Mode
	// Fanout→wirelength table (µm), index = fanout (clamped to the end);
	// index 0 unused.
	Lengths []float64
	// UnitR / UnitC are the statistical per-µm wire parasitics (Ω, fF).
	UnitR float64
	UnitC float64
}

// Length returns the estimated wirelength for a fanout, µm.
func (m *Model) Length(fanout int) float64 {
	if fanout < 1 {
		fanout = 1
	}
	if fanout >= len(m.Lengths) {
		last := len(m.Lengths) - 1
		// Extrapolate linearly per extra fanout.
		slope := m.Lengths[last] - m.Lengths[last-1]
		return m.Lengths[last] + slope*float64(fanout-last)
	}
	return m.Lengths[fanout]
}

// RC returns the estimated net parasitics for a fanout.
func (m *Model) RC(fanout int) (r, c float64) {
	l := m.Length(fanout)
	return m.UnitR * l, m.UnitC * l
}

// Build constructs the default model for a technology and an estimated die
// size. dieArea is the expected core area in µm² (cell area / utilization) —
// average wirelength statistics scale with the die's linear dimension.
func Build(t *tech.Technology, dieArea float64) *Model {
	tb := captable.Build(t, captable.Options{})
	rl, cl, _ := tb.ClassAverage(tech.ClassLocal)
	ri, ci, _ := tb.ClassAverage(tech.ClassIntermediate)

	// Statistical mix: short nets live on local layers, longer ones spill to
	// intermediate; weight 70/30 like typical utilization.
	unitR := 0.7*rl + 0.3*ri
	unitC := 0.7*cl + 0.3*ci

	// Base length ~ a few gate pitches, growing sublinearly with fanout
	// (Fig 6's shape) and with the die dimension.
	dieDim := math.Sqrt(math.Max(dieArea, 1))
	base := 0.04 * dieDim
	if base < 2 {
		base = 2
	}
	lengths := make([]float64, 33)
	for f := 1; f < len(lengths); f++ {
		lengths[f] = base * math.Pow(float64(f), 0.75)
	}
	return &Model{Node: t.Node, Mode: t.Mode, Lengths: lengths, UnitR: unitR, UnitC: unitC}
}

// BuildForMode builds the model for a design mode given the 2D die estimate:
// T-MI footprints shrink ≈40% (Section 3.2), so T-MI expected wirelengths
// shrink by the square root of the area ratio (Section 3.4: "wires are about
// 20-30% shorter").
func BuildForMode(node tech.Node, mode tech.Mode, dieArea2D float64) *Model {
	t := tech.New(node, mode)
	area := dieArea2D
	if mode.Is3D() {
		area *= 0.59 // the measured T-MI footprint ratio
	}
	return Build(t, area)
}
