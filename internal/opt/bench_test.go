package opt

import (
	"testing"

	"tmi3d/internal/captable"
	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/place"
	"tmi3d/internal/sta"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// closed keeps the benchmark's result live.
var closed *Stats

// placedDesign synthesizes and places one circuit at 45 nm in the given
// mode, and returns a fresh placed copy of it per call of the returned
// function, with bounding-box parasitics at the flow's pre-route
// local/intermediate mix.
func placedDesign(tb testing.TB, circuit string, scale float64, mode tech.Mode) (*liberty.Library, func() (*netlist.Design, *place.Placement, func(int) sta.WireRC)) {
	tb.Helper()
	lib, err := liberty.Default(tech.N45, mode)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := circuits.Generate(circuit, scale)
	if err != nil {
		tb.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, mode, 20000)})
	if err != nil {
		tb.Fatal(err)
	}
	tt := tech.New(tech.N45, mode)
	p, err := place.Run(sr.Design, place.Options{Lib: lib, Tech: tt, TargetUtil: 0.72})
	if err != nil {
		tb.Fatal(err)
	}
	snap := p.Snapshot()
	ct := captable.Build(tt, captable.Options{})
	rl, cl, _ := ct.ClassAverage(tech.ClassLocal)
	ri, ci, _ := ct.ClassAverage(tech.ClassIntermediate)
	ur, uc := 0.7*rl+0.3*ri, 0.7*cl+0.3*ci
	return lib, func() (*netlist.Design, *place.Placement, func(int) sta.WireRC) {
		dc := sr.Design.Clone()
		pl := snap.Restore(dc)
		return dc, pl, func(ni int) sta.WireRC {
			l := pl.NetHPWL(ni)
			return sta.WireRC{R: ur * l, C: uc * l}
		}
	}
}

// BenchmarkOptClose times one pre-route closure (max-cap buffering, timing
// rounds, bounding-box parasitics) of the fixed LDPC@1.0 T-MI placement —
// the paper-scale design on which opt and its STA calls are about a third
// of a flow. Each op closes a fresh copy of the placed netlist.
func BenchmarkOptClose(b *testing.B) {
	lib, fresh := placedDesign(b, "LDPC", 1.0, tech.ModeTMI)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, pl, wire := fresh()
		b.StartTimer()
		st, err := Close(d, Options{
			Lib: lib, Placement: pl, MaxRounds: 8, AreaBudget: pl.Die.Area() * 0.95, Wire: wire,
		})
		if err != nil {
			b.Fatal(err)
		}
		closed = st
	}
}
