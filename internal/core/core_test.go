package core

import (
	"strings"
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/tech"
)

// Core tests run at a small scale; the relationships under test hold at any
// scale while the harness stays fast. The study is shared so its flow cache
// serves every test.
var sharedStudy = NewStudy(0.12)

func study() *Study { return sharedStudy }

func TestTable1Relationships(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Cell == "DFF" {
			if r.R3D <= r.R2D {
				t.Errorf("DFF 3D R should exceed 2D")
			}
		} else if r.R3D >= r.R2D {
			t.Errorf("%s: 3D R should be below 2D", r.Cell)
		}
		if r.C3Dc >= r.C3D {
			t.Errorf("%s: conductor-mode C must be below dielectric", r.Cell)
		}
	}
	if s := RenderTable1(); !strings.Contains(s, "DFF") {
		t.Error("render missing DFF row")
	}
}

func TestTable2Relationships(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12 (4 cells × 3 corners)", len(rows))
	}
	for _, r := range rows {
		ratio := r.Delay3D / r.Delay2D
		if r.Cell == "DFF" {
			if ratio < 1.0 {
				t.Errorf("DFF %s: 3D should be slightly slower (ratio %.3f)", r.Corner, ratio)
			}
		} else if ratio > 1.02 {
			t.Errorf("%s %s: 3D delay ratio %.3f, want ≤ ~1", r.Cell, r.Corner, ratio)
		}
		// Within 10 points of the paper's ratio.
		if d := 100*ratio - r.PaperDelayRatio; d > 10 || d < -10 {
			t.Errorf("%s %s: delay ratio %.1f%% vs paper %.1f%%", r.Cell, r.Corner, 100*ratio, r.PaperDelayRatio)
		}
	}
}

func TestStaticTables(t *testing.T) {
	if s := RenderTable3(); !strings.Contains(s, "M2-M6") {
		t.Errorf("Table 3 should list the T-MI local span M2-M6:\n%s", s)
	}
	if s := RenderTable6(); !strings.Contains(s, "multi-gate") {
		t.Error("Table 6 missing device type")
	}
	if s := RenderTable10(); !strings.Contains(s, "2025") {
		t.Error("Table 10 missing 7nm year")
	}
}

func TestSummary45(t *testing.T) {
	s := study()
	rows, err := s.Summary(tech.N45)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	var ldpc, des SummaryRow
	for _, r := range rows {
		if r.Footprint > -30 || r.Footprint < -50 {
			t.Errorf("%s footprint %.1f%%, want ≈-40%%", r.Circuit, r.Footprint)
		}
		if r.Wirelen > -5 {
			t.Errorf("%s wirelength %.1f%%, want negative", r.Circuit, r.Wirelen)
		}
		if r.Total > 0 {
			t.Errorf("%s total power %.1f%%, want reduction", r.Circuit, r.Total)
		}
		switch r.Circuit {
		case "LDPC":
			ldpc = r
		case "DES":
			des = r
		}
	}
	// The paper's key circuit-characteristics finding: LDPC benefits far
	// more than DES (Section 4.3).
	if ldpc.Total >= des.Total {
		t.Errorf("LDPC reduction (%.1f%%) should exceed DES (%.1f%%)", ldpc.Total, des.Total)
	}
	if _, err := s.RenderSummary(tech.N45); err != nil {
		t.Fatal(err)
	}
}

// Table 12 reports the flow's own synthesis: each 45 nm row's counts are the
// 2D flow's post-synth statistics.
func TestTable12MatchesFlow(t *testing.T) {
	s := study()
	rows, err := s.Table12()
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := s.Pairs(circuits.Names, tech.N45)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range circuits.Names {
		want := pairs[i][0].SynthStats
		found := false
		for _, r := range rows {
			if r.Node != tech.N45 || r.Circuit != name {
				continue
			}
			found = true
			if r.NumCells != want.NumCells || r.NumNets != want.NumNets || r.AvgFanout != want.AverageFanout {
				t.Errorf("%s: Table 12 row %d cells, %d nets, fanout %v; 2D flow synthesized %d, %d, %v",
					name, r.NumCells, r.NumNets, r.AvgFanout, want.NumCells, want.NumNets, want.AverageFanout)
			}
		}
		if !found {
			t.Errorf("%s: no 45 nm Table 12 row", name)
		}
	}
}

func TestTable16WirePinCharacter(t *testing.T) {
	s := study()
	rows, err := s.Table16()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]Table16Row{}
	for _, r := range rows {
		byKey[r.Circuit+modeShort(r.Mode)] = r
	}
	// LDPC is wire-dominated; DES leans much further toward pin cap
	// (Section S8). Compare the wire:pin ratios.
	ldpcRatio := byKey["LDPC2D"].WireCapPF / byKey["LDPC2D"].PinCapPF
	desRatio := byKey["DES2D"].WireCapPF / byKey["DES2D"].PinCapPF
	if ldpcRatio <= desRatio {
		t.Errorf("LDPC wire/pin ratio (%.2f) should exceed DES (%.2f)", ldpcRatio, desRatio)
	}
	// T-MI cuts wire cap much more than pin cap.
	ld2, ld3 := byKey["LDPC2D"], byKey["LDPC3D"]
	wireCut := 1 - ld3.WireCapPF/ld2.WireCapPF
	pinCut := 1 - ld3.PinCapPF/ld2.PinCapPF
	if wireCut <= pinCut {
		t.Errorf("T-MI wire-cap cut (%.2f) should exceed pin-cap cut (%.2f)", wireCut, pinCut)
	}
}

func TestFig4Trend(t *testing.T) {
	s := study()
	pts, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("%d points, want 6", len(pts))
	}
	// Faster targets must not shrink the benefit dramatically; the paper's
	// trend is growth from slow → fast.
	for _, name := range []string{"AES", "M256"} {
		var slow, fast Fig4Point
		for _, p := range pts {
			if p.Circuit == name && p.Label == "slow" {
				slow = p
			}
			if p.Circuit == name && p.Label == "fast" {
				fast = p
			}
		}
		if fast.Total < slow.Total-3 {
			t.Errorf("%s: benefit at fast clock (%.1f%%) collapsed vs slow (%.1f%%)",
				name, fast.Total, slow.Total)
		}
	}
}

func TestFig6CurvesMonotone(t *testing.T) {
	s := study()
	curves, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 5 {
		t.Fatalf("%d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.Fanout) < 3 {
			t.Errorf("%s: only %d fanout buckets", c.Circuit, len(c.Fanout))
			continue
		}
		// Average length at fanout 8+ should exceed fanout 1.
		var l1, lHigh float64
		for i, f := range c.Fanout {
			if f == 1 {
				l1 = c.Length[i]
			}
			if f >= 8 && lHigh == 0 {
				lHigh = c.Length[i]
			}
		}
		if l1 > 0 && lHigh > 0 && lHigh <= l1 {
			t.Errorf("%s: high-fanout nets (%.1f µm) should be longer than fanout-1 (%.1f µm)",
				c.Circuit, lHigh, l1)
		}
	}
}

func TestFig11ActivityInvariance(t *testing.T) {
	s := study()
	pts, err := s.Fig11([]string{"AES"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	// Power grows with activity; the reduction rate stays within a band
	// (the paper: "not largely affected").
	for i := 1; i < len(pts); i++ {
		if pts[i].Power2D <= pts[i-1].Power2D {
			t.Error("2D power should grow with activity")
		}
	}
	min, max := pts[0].Reduction, pts[0].Reduction
	for _, p := range pts[1:] {
		if p.Reduction < min {
			min = p.Reduction
		}
		if p.Reduction > max {
			max = p.Reduction
		}
	}
	if max-min > 8 {
		t.Errorf("reduction rate varies %.1f points across activities, want nearly flat", max-min)
	}
}

func TestTable5IncludesPriorWork(t *testing.T) {
	s := study()
	rows, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]bool{}
	for _, r := range rows {
		sources[r.Source] = true
	}
	if !sources["ours"] || !sources["[2]"] || !sources["[7]"] {
		t.Errorf("Table 5 missing sources: %v", sources)
	}
}

func TestFig10ClassesSumTo100(t *testing.T) {
	s := study()
	rows, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		sum := r.LocalPct + r.IntermediatePct + r.GlobalPct
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s-%v: class percentages sum to %.2f", r.Circuit, r.Mode, sum)
		}
		if r.LocalPct <= 0 || r.IntermediatePct <= 0 {
			t.Errorf("%s-%v: local and intermediate layers should both be used", r.Circuit, r.Mode)
		}
	}
}

func TestTable17ModifiedStack(t *testing.T) {
	s := study()
	rows, err := s.Table17()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// The paper finds the +M stack changes power by only a few percent in
	// either direction; assert the comparison stays in a sane band.
	for i := 0; i < len(rows); i += 2 {
		base, mod := rows[i], rows[i+1]
		d := (mod.TotalMW - base.TotalMW) / base.TotalMW * 100
		if d < -15 || d > 15 {
			t.Errorf("%s: +M stack changed power by %.1f%%, want small effect", base.Circuit, d)
		}
	}
}

func TestTable8PinCapParadox(t *testing.T) {
	s := study()
	rows, err := s.Table8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	// Absolute power must drop as pin caps shrink (2D rows: indexes 0,2,4,6).
	for i := 2; i < len(rows); i += 2 {
		if rows[i].TotalMW >= rows[i-2].TotalMW {
			t.Errorf("2D power should fall with smaller pin caps: %v then %v",
				rows[i-2].TotalMW, rows[i].TotalMW)
		}
	}
	// The paper's surprise: the T-MI benefit does NOT grow with pin-cap
	// reduction (it shrinks or stays flat).
	base := rows[1].ReductionPercent
	p60 := rows[7].ReductionPercent
	if p60 < base-3 {
		t.Errorf("T-MI benefit grew sharply with smaller pin caps (%.1f%% → %.1f%%), contradicting Table 8",
			-base, -p60)
	}
}

// TestRenderAll exercises every renderer on the shared (cached) study.
func TestRenderAll(t *testing.T) {
	s := study()
	type gen struct {
		name string
		fn   func() (string, error)
	}
	gens := []gen{
		{"t2", RenderTable2},
		{"t4", func() (string, error) { return s.RenderSummary(tech.N45) }},
		{"t5", s.RenderTable5},
		{"t8", s.RenderTable8},
		{"t9", s.RenderTable9},
		{"t11", RenderTable11},
		{"t12", s.RenderTable12},
		{"t13", func() (string, error) { return s.RenderDetail(tech.N45) }},
		{"t15", s.RenderTable15},
		{"t16", s.RenderTable16},
		{"t17", s.RenderTable17},
		{"f4", s.RenderFig4},
		{"f6", s.RenderFig6},
		{"f10", s.RenderFig10},
		{"f11", func() (string, error) { return s.RenderFig11([]string{"AES"}) }},
	}
	for _, g := range gens {
		out, err := g.fn()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if len(out) < 50 || !strings.Contains(out, "\n") {
			t.Errorf("%s: suspiciously short render:\n%s", g.name, out)
		}
	}
}
