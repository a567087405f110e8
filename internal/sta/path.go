package sta

import (
	"fmt"
	"math"
	"strings"

	"tmi3d/internal/netlist"
)

// PathStep is one stage of a reported timing path.
type PathStep struct {
	Instance string // driving instance ("<input>" for the startpoint)
	Cell     string
	FromPin  string
	Net      string
	Arrival  float64 // ps at the net
	Slew     float64
	Load     float64
}

// CriticalPath walks backwards from the worst endpoint, picking at each stage
// the input arc that produced the max arrival — the report_timing view of
// the sign-off run.
func CriticalPath(d *netlist.Design, env Env, res *Result) []PathStep {
	if res.CriticalNet < 0 {
		return nil
	}
	lib := env.Lib
	var path []PathStep
	net := res.CriticalNet
	for depth := 0; depth < 10000; depth++ {
		drv := d.Nets[net].Driver
		step := PathStep{
			Net:     d.Nets[net].Name,
			Arrival: res.Arrival[net],
			Slew:    res.Slew[net],
			Load:    res.Load[net],
		}
		if drv.Inst < 0 {
			step.Instance = "<input>"
			step.FromPin = drv.Pin
			path = append(path, step)
			break
		}
		inst := &d.Instances[drv.Inst]
		c := lib.Cell(inst.CellName)
		step.Instance = inst.Name
		step.Cell = inst.CellName
		if c == nil {
			path = append(path, step)
			break
		}
		if c.Seq {
			step.FromPin = c.Clock
			path = append(path, step)
			break // path starts at the launching flop
		}
		// Find the input arc that set this arrival.
		bestNet := -1
		bestErr := math.Inf(1)
		var bestFrom string
		for ai := range c.Arcs {
			arc := &c.Arcs[ai]
			if arc.To != drv.Pin {
				continue
			}
			inNet, ok := inst.Pins.Net(arc.From)
			if !ok || math.IsInf(res.Arrival[inNet], -1) {
				continue
			}
			a := res.Arrival[inNet] + WireDelay(env.Wire(inNet), res.Load[inNet]) + arc.Delay.At(res.Slew[inNet], res.Load[net])
			if e := math.Abs(a - res.Arrival[net]); e < bestErr {
				bestErr = e
				bestNet = inNet
				bestFrom = arc.From
			}
		}
		step.FromPin = bestFrom
		path = append(path, step)
		if bestNet < 0 {
			break
		}
		net = bestNet
	}
	// Reverse into startpoint→endpoint order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// FormatPath renders a critical path like a report_timing block.
func FormatPath(path []PathStep, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (%d stages, WNS %+.0f ps @ clock %.0f ps):\n",
		len(path), res.WNS, res.ClockPs)
	prev := 0.0
	for _, s := range path {
		incr := s.Arrival - prev
		prev = s.Arrival
		cell := s.Cell
		if cell == "" {
			cell = "-"
		}
		fmt.Fprintf(&b, "  %8.1f ps  (+%6.1f)  %-20s %-10s %s -> %s\n",
			s.Arrival, incr, s.Instance, cell, s.FromPin, s.Net)
	}
	return b.String()
}
