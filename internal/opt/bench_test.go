package opt

import (
	"testing"

	"tmi3d/internal/captable"
	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/place"
	"tmi3d/internal/sta"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// closed keeps the benchmark's result live.
var closed *Stats

// BenchmarkOptClose times one pre-route closure (max-cap buffering, timing
// rounds, bounding-box parasitics) of the fixed LDPC@1.0 T-MI placement —
// the paper-scale design on which opt and its STA calls are about a third
// of a flow. Each op closes a fresh copy of the placed netlist.
func BenchmarkOptClose(b *testing.B) {
	lib, err := liberty.Default(tech.N45, tech.ModeTMI)
	if err != nil {
		b.Fatal(err)
	}
	d, err := circuits.Generate("LDPC", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, tech.ModeTMI, 20000)})
	if err != nil {
		b.Fatal(err)
	}
	tt := tech.New(tech.N45, tech.ModeTMI)
	p, err := place.Run(sr.Design, place.Options{Lib: lib, Tech: tt, TargetUtil: 0.72, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	snap := p.Snapshot()
	// Bounding-box parasitics at the flow's pre-route local/intermediate mix.
	tb := captable.Build(tt, captable.Options{})
	rl, cl, _ := tb.ClassAverage(tech.ClassLocal)
	ri, ci, _ := tb.ClassAverage(tech.ClassIntermediate)
	ur, uc := 0.7*rl+0.3*ri, 0.7*cl+0.3*ci
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dc := sr.Design.Clone()
		pl := snap.Restore(dc)
		b.StartTimer()
		st, err := Close(dc, Options{
			Lib: lib, Placement: pl, MaxRounds: 8, AreaBudget: pl.Die.Area() * 0.95,
			Wire: func(ni int) sta.WireRC {
				l := pl.NetHPWL(ni)
				return sta.WireRC{R: ur * l, C: uc * l}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		closed = st
	}
}
