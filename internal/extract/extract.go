// Package extract computes cell-internal parasitic RC from procedural cell
// layouts, standing in for Mentor Calibre xRC with EM-simulation-based rules
// (Section 3.2 of the paper).
//
// Resistance comes from sheet resistance times squares per wire shape, plus
// per-contact and per-MIV terms. Capacitance combines area, fringe, lateral
// same-layer coupling, and — for folded T-MI cells — vertical coupling across
// the inter-layer dielectric between bottom-tier objects (PB, MB1) and
// top-tier objects (P, M1).
//
// The 2D extractor the paper used can model the top-tier silicon either as a
// dielectric (overestimating inter-tier coupling) or as a conductor
// (underestimating it); both modes are provided, mirroring the "3D" and
// "3D-c" columns of Table 1.
package extract

import (
	"math"
	"sort"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/geom"
)

// SiliconModel selects how the top-tier silicon is modeled during extraction.
type SiliconModel int

// Extraction modes for the top-tier silicon (Table 1).
const (
	Dielectric SiliconModel = iota // "3D": coupling overestimated
	Conductor                      // "3D-c": coupling underestimated
	// Mean averages the two bounds — "the real case would be between these
	// two extreme cases" (Section 3.2) — and is what the library
	// characterization uses.
	Mean
)

// Extraction rule constants, calibrated once against the Table 1 published
// values for the Nangate-derived 2D cells.
const (
	sheetPoly = 7.5  // Ω/sq
	sheetM1   = 0.27 // Ω/sq (copper, 130nm thick)
	rContact  = 5.0  // Ω per contact cut
	rMIV      = 2.6  // Ω per monolithic inter-tier via
	// rMIVPath is the landing-pad detour of a tracked MIV connection
	// (CTB → MB1 stub → MIV → M1 stub → CT); direct S/D contacts avoid it.
	rMIVPath = 22.0

	caPoly = 0.08 // fF/µm² area capacitance, poly over field
	cfPoly = 0.06 // fF/µm fringe
	caM1   = 0.03
	cfM1   = 0.04
	// Lateral coupling between parallel same-layer edges, fF/µm at the
	// reference gap, scaled by gapRef/gap.
	cLateral = 0.030
	gapRef   = 0.14
	maxGap   = 0.30
	// Vertical coupling across the 110nm inter-tier ILD: k·ε0/t_ILD.
	cVertical = 0.20 // fF/µm²
	// In conductor mode the doped top-tier silicon screens most of the field;
	// the surviving coupling (to ground) is a fraction of the dielectric case.
	conductorScreen = 0.35
)

// NetRC is the lumped parasitics of one cell-internal net.
type NetRC struct {
	R float64 // series resistance, Ω
	C float64 // total capacitance to ground (incl. coupling halves), fF
}

// Result is a full cell extraction.
type Result struct {
	Cell string
	Mode SiliconModel
	Nets map[string]NetRC
	// TotalR sums signal-net resistance; TotalC sums capacitance over all
	// nets including the supply strips — the quantities Table 1 reports.
	TotalR float64 // kΩ
	TotalC float64 // fF
	// RailCoupling is the VDD–VSS strip overlap capacitance (T-MI only), fF.
	RailCoupling float64
}

func sheetFor(layer string) (rs float64, wire bool) {
	switch layer {
	case cellgen.LayerPoly, cellgen.LayerPolyB:
		return sheetPoly, true
	case cellgen.LayerM1, cellgen.LayerMB1:
		return sheetM1, true
	}
	return 0, false
}

func capFor(layer string) (ca, cf float64, ok bool) {
	switch layer {
	case cellgen.LayerPoly, cellgen.LayerPolyB:
		return caPoly, cfPoly, true
	case cellgen.LayerM1, cellgen.LayerMB1:
		return caM1, cfM1, true
	}
	return 0, 0, false
}

func isContact(layer string) bool {
	return layer == cellgen.LayerCT || layer == cellgen.LayerCTB
}

// bottomTier reports whether the layer belongs to the bottom device tier.
func bottomTier(layer string) bool {
	switch layer {
	case cellgen.LayerPolyB, cellgen.LayerDiffB, cellgen.LayerCTB, cellgen.LayerMB1:
		return true
	}
	return false
}

// Extract computes the parasitic RC of a cell layout.
func Extract(def *cellgen.CellDef, l *cellgen.Layout, mode SiliconModel) *Result {
	if mode == Mean {
		a := Extract(def, l, Dielectric)
		b := Extract(def, l, Conductor)
		out := &Result{Cell: a.Cell, Mode: Mean, Nets: make(map[string]NetRC, len(a.Nets))}
		for net, rc := range a.Nets {
			rc2 := b.Nets[net]
			out.Nets[net] = NetRC{R: rc.R, C: (rc.C + rc2.C) / 2}
		}
		out.TotalR = a.TotalR
		out.TotalC = (a.TotalC + b.TotalC) / 2
		out.RailCoupling = (a.RailCoupling + b.RailCoupling) / 2
		return out
	}
	res := &Result{Cell: l.Cell, Mode: mode, Nets: make(map[string]NetRC)}

	ports := map[string]bool{}
	for _, p := range def.Ports {
		ports[p.Name] = true
	}

	// Resistance per tier and self-capacitance per net. For folded cells the
	// tier-crossing topology determines the effective net resistance: every
	// I/O pin exists on both tiers (Section 3.1), so a port net's two tier
	// branches hang in parallel off the MIV; an internal net is generated on
	// one tier and must cross the MIV in series to reach the other. This is
	// what makes simple-cell resistance drop after folding while the DFF's
	// many internal tier crossings push its resistance above 2D (Table 1).
	type tierR struct{ bot, top, via float64 }
	acc := map[string]*tierR{}
	tr := func(net string) *tierR {
		a, ok := acc[net]
		if !ok {
			a = &tierR{}
			acc[net] = a
		}
		return a
	}
	for _, s := range l.Shapes {
		if s.Net == "" {
			continue
		}
		rc := res.Nets[s.Net]
		a := tr(s.Net)
		if rs, ok := sheetFor(s.Layer); ok {
			long, short := s.R.W(), s.R.H()
			if short > long {
				long, short = short, long
			}
			var r float64
			if short > 0 {
				r = rs * long / short
			}
			if bottomTier(s.Layer) {
				a.bot += r
			} else {
				a.top += r
			}
			if ca, cf, ok := capFor(s.Layer); ok {
				rc.C += ca*s.R.Area() + cf*s.R.Perimeter()
			}
		} else if isContact(s.Layer) {
			if bottomTier(s.Layer) {
				a.bot += rContact
			} else {
				a.top += rContact
			}
		} else if s.Layer == cellgen.LayerMIV {
			a.via += rMIV + rMIVPath
		} else if s.Layer == cellgen.LayerMIVD {
			a.via += rMIV
		}
		res.Nets[s.Net] = rc
	}
	for net, a := range acc {
		rc := res.Nets[net]
		if l.TMI && a.bot > 0 && a.top > 0 && ports[net] {
			rc.R = a.via + a.bot*a.top/(a.bot+a.top)
		} else {
			rc.R = a.bot + a.via + a.top
		}
		res.Nets[net] = rc
	}

	// Lateral same-layer coupling between different nets.
	for i := range l.Shapes {
		a := &l.Shapes[i]
		if _, wire := sheetFor(a.Layer); !wire || a.Net == "" {
			continue
		}
		for j := i + 1; j < len(l.Shapes); j++ {
			b := &l.Shapes[j]
			if b.Layer != a.Layer || b.Net == a.Net || b.Net == "" {
				continue
			}
			if c := lateralCoupling(a.R, b.R); c > 0 {
				addHalf(res.Nets, a.Net, b.Net, c)
			}
		}
	}

	// Inter-tier vertical coupling for folded cells.
	if l.TMI {
		scale := 1.0
		toGroundOnly := false
		if mode == Conductor {
			scale = conductorScreen
			toGroundOnly = true
		}
		for i := range l.Shapes {
			a := &l.Shapes[i]
			if !bottomTier(a.Layer) || a.Net == "" {
				continue
			}
			if _, wire := sheetFor(a.Layer); !wire {
				continue
			}
			for j := range l.Shapes {
				b := &l.Shapes[j]
				if bottomTier(b.Layer) || b.Net == "" || b.Net == a.Net {
					continue
				}
				if _, wire := sheetFor(b.Layer); !wire {
					continue
				}
				ov, ok := a.R.Intersection(b.R)
				if !ok || ov.Area() <= 0 {
					continue
				}
				c := cVertical * ov.Area() * scale
				if a.Net == cellgen.NetVDD && b.Net == cellgen.NetVSS ||
					a.Net == cellgen.NetVSS && b.Net == cellgen.NetVDD {
					res.RailCoupling += c
				}
				if toGroundOnly {
					// Screened by the grounded top silicon: each plate sees
					// ground individually.
					addTo(res.Nets, a.Net, c/2)
					addTo(res.Nets, b.Net, c/2)
				} else {
					addHalf(res.Nets, a.Net, b.Net, c)
				}
			}
		}
	}

	// Table 1 totals: signal-net R, all-net C. Summed in sorted net order —
	// float addition does not commute, and the totals feed byte-compared
	// reports.
	netNames := make([]string, 0, len(res.Nets))
	for net := range res.Nets {
		netNames = append(netNames, net)
	}
	sort.Strings(netNames)
	for _, net := range netNames {
		rc := res.Nets[net]
		if net != cellgen.NetVDD && net != cellgen.NetVSS {
			res.TotalR += rc.R
		}
		res.TotalC += rc.C
	}
	res.TotalR /= 1000 // Ω → kΩ
	_ = def
	return res
}

// lateralCoupling returns the coupling cap between two same-layer rectangles
// based on their parallel-run length and gap.
func lateralCoupling(a, b geom.Rect) float64 {
	// Horizontal overlap with vertical gap, or vice versa.
	xOv := math.Min(a.Hi.X, b.Hi.X) - math.Max(a.Lo.X, b.Lo.X)
	yOv := math.Min(a.Hi.Y, b.Hi.Y) - math.Max(a.Lo.Y, b.Lo.Y)
	if xOv > 0 && yOv <= 0 {
		gap := -yOv
		if gap < maxGap {
			return cLateral * xOv * gapRef / math.Max(gap, 0.05)
		}
	}
	if yOv > 0 && xOv <= 0 {
		gap := -xOv
		if gap < maxGap {
			return cLateral * yOv * gapRef / math.Max(gap, 0.05)
		}
	}
	return 0
}

func addHalf(nets map[string]NetRC, a, b string, c float64) {
	addTo(nets, a, c/2)
	addTo(nets, b, c/2)
}

func addTo(nets map[string]NetRC, net string, c float64) {
	rc := nets[net]
	rc.C += c
	nets[net] = rc
}
