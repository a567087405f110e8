// Package rcx extracts per-net wire parasitics from a completed global
// routing using the capTable unit values — the Cadence QRC extraction stage
// of the paper's flow. Each net's routed length per layer class converts to
// lumped resistance and capacitance; vias and (for T-MI) MIVs add their own
// resistance.
package rcx

import (
	"tmi3d/internal/captable"
	"tmi3d/internal/route"
	"tmi3d/internal/tech"
)

// NetRC is the extracted wire parasitics of one net.
type NetRC struct {
	R float64 // Ω
	C float64 // fF
}

// Extraction holds per-net parasitics plus totals.
type Extraction struct {
	Nets []NetRC
	// TotalWireCap is the summed wire capacitance, fF (Table 16).
	TotalWireCap float64
}

// Extract converts a routing result to parasitics.
func Extract(r *route.Result, tb *captable.Table, t *tech.Technology) *Extraction {
	// Unit values per class (average over the class's layers).
	var unitR, unitC [route.NumClasses]float64
	for c := 0; c < route.NumClasses; c++ {
		if rr, cc, ok := tb.ClassAverage(tech.LayerClass(c)); ok {
			unitR[c], unitC[c] = rr, cc
		}
	}
	ex := &Extraction{Nets: make([]NetRC, len(r.Routes))}
	for ni := range r.Routes {
		nr := &r.Routes[ni]
		var rc NetRC
		for c := 0; c < route.NumClasses; c++ {
			rc.R += nr.LenByClass[c] * unitR[c]
			rc.C += nr.LenByClass[c] * unitC[c]
		}
		rc.R += float64(nr.Vias) * tb.ViaR
		if t.Mode.Is3D() {
			// Pin access may cross tiers; one MIV per net on average adds
			// negligible parasitics (Section 1).
			rc.R += tb.MIVR
			rc.C += tb.MIVC
		}
		ex.Nets[ni] = rc
		ex.TotalWireCap += rc.C
	}
	return ex
}
