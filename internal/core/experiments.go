package core

import (
	"fmt"
	"strings"

	"tmi3d/internal/tech"
)

// Experiment is one table or figure of the paper's evaluation: its public id
// and the renderer that regenerates it on a study.
type Experiment struct {
	ID     string
	Render func(*Study) (string, error)
}

// Experiments is the paper's evaluation in report order. cmd/experiments
// renders it front to back; serve's /v1/experiment/{id} renders one entry.
var Experiments = []Experiment{
	{"table1", func(*Study) (string, error) { return RenderTable1(), nil }},
	{"table2", func(*Study) (string, error) { return RenderTable2() }},
	{"table3", func(*Study) (string, error) { return RenderTable3(), nil }},
	{"table4", func(s *Study) (string, error) { return s.RenderSummary(tech.N45) }},
	{"table5", (*Study).RenderTable5},
	{"table6", func(*Study) (string, error) { return RenderTable6(), nil }},
	{"table7", func(s *Study) (string, error) { return s.RenderSummary(tech.N7) }},
	{"table8", (*Study).RenderTable8},
	{"table9", (*Study).RenderTable9},
	{"table10", func(*Study) (string, error) { return RenderTable10(), nil }},
	{"table11", func(*Study) (string, error) { return RenderTable11() }},
	{"table12", (*Study).RenderTable12},
	{"table13", func(s *Study) (string, error) { return s.RenderDetail(tech.N45) }},
	{"table14", func(s *Study) (string, error) { return s.RenderDetail(tech.N7) }},
	{"table15", (*Study).RenderTable15},
	{"table16", (*Study).RenderTable16},
	{"table17", (*Study).RenderTable17},
	{"fig4", (*Study).RenderFig4},
	{"fig6", (*Study).RenderFig6},
	{"fig10", (*Study).RenderFig10},
	{"fig11", func(s *Study) (string, error) { return s.RenderFig11(nil) }},
}

// FindExperiment returns the experiment whose id matches id, ignoring case.
// An unknown id is an error that lists every valid one.
func FindExperiment(id string) (Experiment, error) {
	for _, e := range Experiments {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (one of %s)", id, strings.Join(ids, ", "))
}
