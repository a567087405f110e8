package sta_test

import (
	"testing"

	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/sta"
)

// fanoutWire prices a net by its fanout, so a moved sink changes the
// parasitics of both nets a buffer splits.
func fanoutWire(d *netlist.Design) func(int) sta.WireRC {
	return func(ni int) sta.WireRC {
		f := float64(len(d.Nets[ni].Sinks))
		return sta.WireRC{R: 40 * f, C: 1.5 * f}
	}
}

// timedFPU returns the synthesized FPU@0.1 with a clock at 80% of its
// critical path, and a timer over it.
func timedFPU(t *testing.T) (*liberty.Library, *netlist.Design, sta.Env, *sta.Timer, *sta.Result) {
	t.Helper()
	lib, d := synthesized(t, 0.1)
	env := sta.Env{Lib: lib, Wire: fanoutWire(d)}
	relaxed, err := sta.Analyze(d, env)
	if err != nil {
		t.Fatal(err)
	}
	d.TargetClockPs = 0.8 * (relaxed.ClockPs - relaxed.WNS)
	tm, err := sta.NewTimer(d, env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tm.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return lib, d, env, tm, res
}

// matchesFull re-times d from scratch and requires the timer's result to
// agree with it in every field, bit for bit.
func matchesFull(t *testing.T, tm *sta.Timer, d *netlist.Design, env sta.Env) *sta.Result {
	t.Helper()
	got, err := tm.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sta.Analyze(d, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Diff(want); err != nil {
		t.Fatal(err)
	}
	return got
}

// Resizing a flop must rebind its cell, setup, hold and clock→Q launch arc,
// not only its name: a stale launch arc leaves every path it starts timed
// with the old drive strength.
func TestTimerFlopResize(t *testing.T) {
	lib, d, env, tm, before := timedFPU(t)
	// The flops launching and capturing the worst-slack register paths.
	pin := func(ii int, name string) int {
		ni, ok := d.Instances[ii].Pins.Net(name)
		if !ok {
			t.Fatalf("flop %s has no %s pin", d.Instances[ii].Name, name)
		}
		return ni
	}
	launch, capture := -1, -1
	for ii := range d.Instances {
		if d.Instances[ii].Func != "DFF" {
			continue
		}
		q, dn := pin(ii, "Q"), pin(ii, "D")
		if launch < 0 || before.Slack(q) < before.Slack(pin(launch, "Q")) {
			launch = ii
		}
		if capture < 0 || before.Slack(dn) < before.Slack(pin(capture, "D")) {
			capture = ii
		}
	}
	if launch < 0 || before.Slack(pin(launch, "Q")) >= 0 {
		t.Fatal("no flop launches a failing path")
	}
	flops := []int{launch}
	if capture != launch {
		flops = append(flops, capture)
	}
	for _, ii := range flops {
		// Upsize; a flop synthesis already left at full strength is
		// downsized instead.
		cell := lib.MustCell(d.Instances[ii].CellName)
		up := lib.Upsize(cell)
		if up == nil {
			up = lib.Downsize(cell)
		}
		if err := tm.Resize(ii, up); err != nil {
			t.Fatal(err)
		}
		if d.Instances[ii].CellName != up.Name {
			t.Errorf("Resize left %s bound to %s", d.Instances[ii].Name, d.Instances[ii].CellName)
		}
	}
	after := matchesFull(t, tm, d, env)
	if after == before || after.Diff(before) == nil {
		t.Error("resizing critical-path flops did not change the timing")
	}
}

// Resizing a combinational cell rebinds its arcs to the new cell's tables.
func TestTimerCombResize(t *testing.T) {
	lib, d, env, tm, before := timedFPU(t)
	ii := d.Nets[before.CriticalNet].Driver.Inst
	if ii < 0 || d.Instances[ii].Func == "DFF" {
		t.Fatal("critical net is not driven by a combinational cell")
	}
	cell := lib.MustCell(d.Instances[ii].CellName)
	up := lib.Upsize(cell)
	if up == nil {
		up = lib.Downsize(cell)
	}
	if err := tm.Resize(ii, up); err != nil {
		t.Fatal(err)
	}
	if after := matchesFull(t, tm, d, env); after.Diff(before) == nil {
		t.Error("resizing the critical driver did not change the timing")
	}
}

// Buffer insertions patch the graph in place: moved sinks (flop D pins and
// primary outputs among them) read the new net, and each buffer is ordered
// after its input's driver, also when that driver is a buffer inserted in
// the same batch or the new buffer takes over an earlier buffer's input.
func TestTimerInsertBuffer(t *testing.T) {
	_, d, env, tm, _ := timedFPU(t)
	// A net feeding a flop D pin, a net feeding a primary output, and a
	// primary input net: each gets a buffer taking over that sink.
	var picks []netlist.PinRef // {net, sink} pairs, flattened
	flop, po, pi := false, false, false
	for ni := range d.Nets {
		n := &d.Nets[ni]
		if ni == d.ClockNet {
			continue
		}
		for _, s := range n.Sinks {
			switch {
			case !po && s.Inst < 0 && n.Driver.Inst >= 0:
				po = true
			case !flop && s.Inst >= 0 && s.Pin == "D" && n.Driver.Inst >= 0:
				flop = true
			case !pi && s.Inst >= 0 && n.Driver.Inst < 0:
				pi = true
			default:
				continue
			}
			picks = append(picks, netlist.PinRef{Inst: ni}, s)
			break
		}
	}
	if len(picks) != 6 {
		t.Fatalf("found %d of 3 nets to buffer", len(picks)/2)
	}
	buffer := func(ni int, moved ...netlist.PinRef) (int, int) {
		t.Helper()
		newNet, ii, err := tm.InsertBuffer(ni, moved, "BUF", "BUF_X4")
		if err != nil {
			t.Fatal(err)
		}
		return newNet, ii
	}
	for k := 0; k < len(picks); k += 2 {
		buffer(picks[k].Inst, picks[k+1])
	}
	flopNet := picks[0].Inst
	matchesFull(t, tm, d, env)

	// One batch: buffer a net, buffer the new net, then split the original
	// net again, moving the first buffer's input behind the third.
	n1, b1 := buffer(flopNet, d.Nets[flopNet].Sinks[0])
	buffer(n1, d.Nets[n1].Sinks[0])
	buffer(flopNet, netlist.PinRef{Inst: b1, Pin: "A"})
	res := matchesFull(t, tm, d, env)

	// With no edit since, Analyze returns the same result.
	again, err := tm.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Error("Analyze re-timed an unchanged design")
	}
}
