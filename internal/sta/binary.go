package sta

import (
	"math"

	"tmi3d/internal/binwire"
)

// Finite clamps a possibly non-finite timing value for transport in a plain
// JSON field (flow.Result.WNS, opt.Stats.FinalWNS): finite values pass
// through untouched, so byte identity holds everywhere timing is real;
// ±Inf — the unconstrained-design sentinel — clamps to ±math.MaxFloat64 and
// NaN to 0, so a degenerate design still encodes instead of failing
// json.Marshal outright.
func Finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// WriteBinary appends r's binary form (internal/binwire) to w: the stage
// store's timing artifact. Timing vectors legitimately carry non-finite
// values — unreached nets keep their -Inf arrival, and WNS starts at +Inf
// before endpoints fold in — and every value travels as its bit pattern, so
// they round-trip exactly; nil and empty vectors stay distinct.
func (r *Result) WriteBinary(w *binwire.Writer) {
	w.Floats(r.Arrival)
	w.Floats(r.Slew)
	w.Floats(r.Required)
	w.Floats(r.Load)
	w.Float(r.WNS)
	w.Float(r.TNS)
	w.Float(r.HoldWNS)
	w.Int(r.CriticalNet)
	w.Float(r.ClockPs)
}

// ReadBinary replaces r with the result WriteBinary wrote, or fails rd.
func (r *Result) ReadBinary(rd *binwire.Reader) {
	*r = Result{
		Arrival:     rd.Floats(),
		Slew:        rd.Floats(),
		Required:    rd.Floats(),
		Load:        rd.Floats(),
		WNS:         rd.Float(),
		TNS:         rd.Float(),
		HoldWNS:     rd.Float(),
		CriticalNet: rd.Int(),
		ClockPs:     rd.Float(),
	}
}
