// Package synth performs logic synthesis for the study — the Synopsys Design
// Compiler stage of the paper's flow (Fig 1): technology mapping of the
// generic gate netlist onto the characterized library, wire-load-model
// driven timing estimation, fanout buffering, and slack-driven gate sizing.
//
// Because the T-MI wire load models predict shorter wires, the synthesized
// netlists for 2D and T-MI differ (Section 3.4) — fewer/smaller cells for
// T-MI — which Table 15 quantifies.
package synth

import (
	"fmt"
	"math"
	"sort"

	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/sta"
	"tmi3d/internal/wlm"
)

// Options configures a synthesis run.
type Options struct {
	Lib *liberty.Library
	WLM *wlm.Model
}

const (
	// maxFanout triggers buffer-tree insertion above this fanout.
	maxFanout = 16
	// sizingRounds bounds the slack-driven upsizing loop.
	sizingRounds = 8
)

// Result is a synthesized design plus summary metrics (Table 12 rows).
type Result struct {
	Design   *netlist.Design
	Stats    netlist.Stats
	CellArea float64 // µm²
	WNS      float64 // ps, under the wire load model
}

// Run synthesizes (a clone of) the generic design.
func Run(src *netlist.Design, opt Options) (*Result, error) {
	if opt.Lib == nil || opt.WLM == nil {
		return nil, fmt.Errorf("synth: library and WLM required")
	}
	d := src.Clone()

	// Technology mapping: bind every generic function to its X1 cell.
	for i := range d.Instances {
		inst := &d.Instances[i]
		name := inst.Func + "_X1"
		if opt.Lib.Cell(name) == nil {
			return nil, fmt.Errorf("synth: no library cell for function %q", inst.Func)
		}
		inst.CellName = name
	}

	// Fanout buffering: nets above the fanout limit get a buffer tree.
	bufferHighFanout(d)
	// DRV buffering: nets whose estimated load exceeds the driver's
	// max-capacitance limit are split. Because the estimate comes from the
	// wire load model, the T-MI model's shorter wires synthesize fewer
	// buffers — the Section 3.4 effect Table 15 measures.
	bufferMaxCap(d, opt)

	env := sta.Env{
		Lib: opt.Lib,
		Wire: func(net int) sta.WireRC {
			r, c := opt.WLM.RC(d.Nets[net].Fanout())
			return sta.WireRC{R: r, C: c}
		},
	}

	// Slack-driven sizing to the target clock, through one timer: resizing
	// leaves the compiled timing graph in place.
	t, err := sta.NewTimer(d, env)
	if err != nil {
		return nil, err
	}
	var last *sta.Result
	for round := 0; round < sizingRounds; round++ {
		res, err := t.Analyze()
		if err != nil {
			return nil, err
		}
		last = res
		if res.Met() {
			break
		}
		n, err := upsizeCritical(d, t, opt.Lib, res, 0.10)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	if last == nil {
		if last, err = t.Analyze(); err != nil {
			return nil, err
		}
	}

	out := &Result{Design: d, Stats: d.Stats(), WNS: last.WNS}
	for i := range d.Instances {
		out.CellArea += opt.Lib.MustCell(d.Instances[i].CellName).Area
	}
	return out, nil
}

// bufferHighFanout splits nets whose fanout exceeds the limit with BUF_X4
// trees, recursively.
func bufferHighFanout(d *netlist.Design) {
	for pass := 0; pass < 6; pass++ {
		changed := false
		numNets := len(d.Nets) // snapshot: inserted nets are already legal
		for ni := 0; ni < numNets; ni++ {
			if ni == d.ClockNet {
				continue
			}
			sinks := d.Nets[ni].Sinks
			if len(sinks) <= maxFanout {
				continue
			}
			// Move every sink behind ≤maxFanout-wide buffers; the root is
			// left driving only the buffer inputs (re-split on the next
			// pass if even those exceed the limit — a buffer tree).
			groups := (len(sinks) + maxFanout - 1) / maxFanout
			for g := 0; g < groups; g++ {
				lo := g * maxFanout
				hi := lo + maxFanout
				if hi > len(sinks) {
					hi = len(sinks)
				}
				moved := make([]netlist.PinRef, hi-lo)
				copy(moved, sinks[lo:hi])
				d.InsertBuffer(ni, moved, "BUF", "BUF_X4")
			}
			changed = true
		}
		if !changed {
			return
		}
	}
}

// bufferMaxCap splits nets whose WLM-estimated load exceeds the driving
// cell's max capacitance.
func bufferMaxCap(d *netlist.Design, opt Options) {
	for pass := 0; pass < 5; pass++ {
		changed := false
		numNets := len(d.Nets)
		for ni := 0; ni < numNets; ni++ {
			if ni == d.ClockNet {
				continue
			}
			drv := d.Nets[ni].Driver
			if drv.Inst < 0 {
				continue
			}
			sinks := d.Nets[ni].Sinks
			if len(sinks) < 2 {
				continue
			}
			_, wireC := opt.WLM.RC(len(sinks))
			load := wireC
			for _, s := range sinks {
				if s.Inst < 0 {
					continue
				}
				load += opt.Lib.MustCell(d.Instances[s.Inst].CellName).PinCap[s.Pin]
			}
			cell := opt.Lib.MustCell(d.Instances[drv.Inst].CellName)
			if load <= cell.MaxCap() {
				continue
			}
			half := len(sinks) / 2
			moved := make([]netlist.PinRef, half)
			copy(moved, sinks[len(sinks)-half:])
			d.InsertBuffer(ni, moved, "BUF", "BUF_X4")
			changed = true
		}
		if !changed {
			return
		}
	}
}

// upsizeCritical bumps the drive strength of cells driving negative-slack
// nets, worst first, touching at most frac of the failing drivers per call.
// It returns the number of cells changed.
func upsizeCritical(d *netlist.Design, t *sta.Timer, lib *liberty.Library, res *sta.Result, frac float64) (int, error) {
	type cand struct {
		inst  int
		slack float64
	}
	var cands []cand
	seen := map[int]bool{}
	for ni := range d.Nets {
		if res.Slack(ni) >= 0 {
			continue
		}
		drv := d.Nets[ni].Driver
		if drv.Inst < 0 || seen[drv.Inst] {
			continue
		}
		seen[drv.Inst] = true
		cands = append(cands, cand{drv.Inst, res.Slack(ni)})
	}
	if len(cands) == 0 {
		return 0, nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].slack < cands[j].slack })
	limit := int(math.Ceil(frac * float64(len(cands))))
	if limit < 16 {
		limit = 16
	}
	changed := 0
	for _, c := range cands {
		if changed >= limit {
			break
		}
		cell := lib.MustCell(d.Instances[c.inst].CellName)
		up := lib.Upsize(cell)
		if up == nil {
			continue
		}
		if err := t.Resize(c.inst, up); err != nil {
			return changed, err
		}
		changed++
	}
	return changed, nil
}
