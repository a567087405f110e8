package core

import (
	"tmi3d/internal/circuits"
	"tmi3d/internal/flow"
	"tmi3d/internal/lint"
	"tmi3d/internal/report"
	"tmi3d/internal/tech"
)

// SummaryRow is one circuit of the layout summary (Tables 4 and 7): the
// percentage difference of T-MI over 2D.
type SummaryRow struct {
	Circuit   string
	Footprint float64
	Wirelen   float64
	Total     float64
	Cell      float64
	Net       float64
	Leakage   float64
	// Paper holds the published deltas in the same order.
	Paper [6]float64
}

var table4Paper = map[string][6]float64{
	"FPU":  {-41.7, -26.3, -14.5, -9.4, -19.5, -11.1},
	"AES":  {-42.4, -23.6, -10.9, -7.6, -13.9, -9.5},
	"LDPC": {-43.2, -33.6, -32.1, -12.8, -39.2, -21.7},
	"DES":  {-40.9, -21.5, -4.1, -1.6, -7.7, -1.4},
	"M256": {-43.4, -28.4, -17.5, -10.7, -22.2, -12.9},
}

var table7Paper = map[string][6]float64{
	"FPU":  {-47.0, -34.2, -37.3, -32.4, -44.4, -21.0},
	"AES":  {-62.0, -47.8, -19.8, -10.3, -28.4, -28.5},
	"LDPC": {-42.9, -27.7, -19.1, -3.7, -26.6, -3.5},
	"DES":  {-40.8, -21.9, -3.4, -1.3, -7.3, -3.0},
	"M256": {-44.6, -23.0, -17.8, -14.1, -23.0, -2.4},
}

// Summary runs the full iso-performance comparison for every benchmark at a
// node — Table 4 (45nm) or Table 7 (7nm).
func (s *Study) Summary(node tech.Node) ([]SummaryRow, error) {
	paper := table4Paper
	if node == tech.N7 {
		paper = table7Paper
	}
	pairs, err := s.Pairs(circuits.Names, node)
	if err != nil {
		return nil, err
	}
	var rows []SummaryRow
	for i, name := range circuits.Names {
		d2, d3 := pairs[i][0], pairs[i][1]
		rows = append(rows, SummaryRow{
			Circuit:   name,
			Footprint: pct(d2.Footprint, d3.Footprint),
			Wirelen:   pct(d2.TotalWL, d3.TotalWL),
			Total:     pct(d2.Power.Total, d3.Power.Total),
			Cell:      pct(d2.Power.Cell, d3.Power.Cell),
			Net:       pct(d2.Power.Net, d3.Power.Net),
			Leakage:   pct(d2.Power.Leakage, d3.Power.Leakage),
			Paper:     paper[name],
		})
	}
	return rows, nil
}

// RenderSummary formats Table 4 / Table 7.
func (s *Study) RenderSummary(node tech.Node) (string, error) {
	rows, err := s.Summary(node)
	if err != nil {
		return "", err
	}
	title := "Table 4: 45nm layout summary, T-MI vs 2D (paper in parentheses)"
	if node == tech.N7 {
		title = "Table 7: 7nm layout summary, T-MI vs 2D (paper in parentheses)"
	}
	t := report.New(title, "circuit", "footprint", "wirelen", "total power", "cell", "net", "leakage")
	for _, r := range rows {
		t.AddRow([]string{
			r.Circuit,
			report.Pct(r.Footprint) + " (" + report.Pct(r.Paper[0]) + ")",
			report.Pct(r.Wirelen) + " (" + report.Pct(r.Paper[1]) + ")",
			report.Pct(r.Total) + " (" + report.Pct(r.Paper[2]) + ")",
			report.Pct(r.Cell) + " (" + report.Pct(r.Paper[3]) + ")",
			report.Pct(r.Net) + " (" + report.Pct(r.Paper[4]) + ")",
			report.Pct(r.Leakage) + " (" + report.Pct(r.Paper[5]) + ")",
		})
	}
	return t.String(), nil
}

// DetailRow is one design of the detailed layout results (Tables 13/14).
type DetailRow struct {
	Circuit    string
	Mode       tech.Mode
	Footprint  float64 // µm²
	NumCells   int
	NumBuffers int
	Util       float64 // %
	TotalWL    float64 // µm
	WNS        float64 // ps
	TotalPower float64 // mW
	CellPower  float64
	NetPower   float64
	Leakage    float64
}

// Detail runs both modes of every circuit at a node (Tables 13 and 14).
func (s *Study) Detail(node tech.Node) ([]DetailRow, error) {
	pairs, err := s.Pairs(circuits.Names, node)
	if err != nil {
		return nil, err
	}
	var rows []DetailRow
	for i, name := range circuits.Names {
		for _, r := range []*flow.Result{pairs[i][0], pairs[i][1]} {
			rows = append(rows, DetailRow{
				Circuit:    name,
				Mode:       r.Config.Mode,
				Footprint:  r.Footprint,
				NumCells:   r.NumCells,
				NumBuffers: r.NumBuffers,
				Util:       r.Util * 100,
				TotalWL:    r.TotalWL,
				WNS:        r.WNS,
				TotalPower: r.Power.Total,
				CellPower:  r.Power.Cell,
				NetPower:   r.Power.Net,
				Leakage:    r.Power.Leakage,
			})
		}
	}
	return rows, nil
}

// RenderDetail formats Table 13 / Table 14.
func (s *Study) RenderDetail(node tech.Node) (string, error) {
	rows, err := s.Detail(node)
	if err != nil {
		return "", err
	}
	title := "Table 13: detailed 45nm layout results"
	if node == tech.N7 {
		title = "Table 14: detailed 7nm layout results"
	}
	t := report.New(title, "circuit", "type", "footprint µm²", "#cells", "#buffers",
		"util %", "WL µm", "WNS ps", "total mW", "cell", "net", "leak")
	for _, r := range rows {
		t.Add(r.Circuit, r.Mode.String(), report.F(r.Footprint, 0), r.NumCells, r.NumBuffers,
			report.F(r.Util, 1), report.F(r.TotalWL, 0), report.F(r.WNS, 0),
			report.F(r.TotalPower, 2), report.F(r.CellPower, 2), report.F(r.NetPower, 2),
			report.F(r.Leakage, 3))
	}
	return t.String(), nil
}

// Table12Row is one circuit × node of the benchmark/synthesis summary.
type Table12Row struct {
	Circuit       string
	Node          tech.Node
	TargetClockNs float64 // the paper's target (pre-calibration)
	NumCells      int
	CellArea      float64 // µm²
	NumNets       int
	AvgFanout     float64
}

// Table12 synthesizes every benchmark at both nodes through the flow's own
// front end (flow.Synthesize, 2D, gates off) and reports the statistics of
// the paper's Table 12 (2D results, as in the paper).
func (s *Study) Table12() ([]Table12Row, error) {
	var rows []Table12Row
	for _, node := range []tech.Node{tech.N45, tech.N7} {
		for _, name := range circuits.Names {
			lib, _, d, err := flow.Synthesize(flow.Config{Circuit: name, Scale: s.Scale, Node: node,
				Mode: tech.Mode2D, Lint: lint.GateOff, Equiv: lint.GateOff})
			if err != nil {
				return nil, err
			}
			clock, _ := circuits.TargetClockPs(name, node)
			st := d.Stats()
			area := 0.0
			for i := range d.Instances {
				area += lib.MustCell(d.Instances[i].CellName).Area
			}
			rows = append(rows, Table12Row{
				Circuit:       name,
				Node:          node,
				TargetClockNs: clock / 1000,
				NumCells:      st.NumCells,
				CellArea:      area,
				NumNets:       st.NumNets,
				AvgFanout:     st.AverageFanout,
			})
		}
	}
	return rows, nil
}

// RenderTable12 formats Table 12.
func (s *Study) RenderTable12() (string, error) {
	rows, err := s.Table12()
	if err != nil {
		return "", err
	}
	t := report.New("Table 12: benchmark circuits and synthesis results",
		"node", "circuit", "clock ns", "#cells", "area µm²", "#nets", "avg fanout")
	for _, r := range rows {
		t.Add(r.Node.String(), r.Circuit, report.F(r.TargetClockNs, 2), r.NumCells,
			report.F(r.CellArea, 0), r.NumNets, report.F(r.AvgFanout, 2))
	}
	return t.String(), nil
}
