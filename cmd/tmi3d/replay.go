package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"tmi3d/internal/flow"
	"tmi3d/internal/netlist"
	"tmi3d/internal/place"
	"tmi3d/internal/sta"
)

// dumpTag starts the header comment line -dump writes at the top of
// <prefix>.v. Its JSON (dumpHeader) carries what a replay needs beyond the
// netlist and the DEF: the flow config and the calibrated clock the
// implementation was signed off at.
const dumpTag = "// tmi3d dump "

type dumpHeader struct {
	Config  flow.Config `json:"config"`
	ClockPs float64     `json:"clock_ps"`
}

// replayMain re-runs the flow's own sign-off (flow.Analyze) on a -dump and
// prints the flow's report block and the critical path:
// `tmi3d replay -dump /tmp/aes` after `tmi3d -circuit AES -dump /tmp/aes`.
func replayMain(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	prefix := fs.String("dump", "", "prefix of the <prefix>.v and <prefix>.def written by tmi3d -dump")
	fs.Parse(args)
	if *prefix == "" {
		log.Fatal("replay: need -dump <prefix>")
	}
	cfg, pl, err := readDump(*prefix)
	if err != nil {
		log.Fatal(err)
	}
	a, err := flow.Analyze(cfg, pl.Design, pl)
	if err != nil {
		log.Fatal(err)
	}
	print1(a.Result)
	fmt.Print(sta.FormatPath(sta.CriticalPath(pl.Design, a.Env, a.Timing), a.Timing))
}

// writeArtifacts emits the final netlist, behind the dump header line, and
// the placement.
func writeArtifacts(r *flow.Result, prefix string) {
	d, pl, err := r.Implementation()
	if err != nil {
		log.Fatal(err)
	}
	hdr, err := json.Marshal(dumpHeader{Config: r.Config, ClockPs: r.ClockPs})
	if err != nil {
		log.Fatal(err)
	}
	write := func(path string, emit func(io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := emit(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	write(prefix+".v", func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "%s%s\n", dumpTag, hdr); err != nil {
			return err
		}
		return d.WriteVerilog(w)
	})
	write(prefix+".def", pl.WriteDEF)
	log.Printf("wrote %s.v and %s.def", prefix, prefix)
}

// readDump reads a -dump back: the header of <prefix>.v, its netlist with
// each cell's output pins taken from the config's library, and the
// placement of that netlist from <prefix>.def. A sign-off netlist is fully
// mapped, so a cell the library lacks is an error. Every error names its
// file.
func readDump(prefix string) (flow.Config, *place.Placement, error) {
	var h dumpHeader
	vPath, defPath := prefix+".v", prefix+".def"
	vf, err := os.Open(vPath)
	if err != nil {
		return h.Config, nil, err
	}
	defer vf.Close()
	br := bufio.NewReader(vf)
	line, err := br.ReadString('\n')
	if err != nil && err != io.EOF {
		return h.Config, nil, fmt.Errorf("%s: %w", vPath, err)
	}
	js, ok := strings.CutPrefix(line, dumpTag)
	if !ok {
		return h.Config, nil, fmt.Errorf("%s: no %q header line (tmi3d -dump writes it)", vPath, strings.TrimSpace(dumpTag))
	}
	if err := json.Unmarshal([]byte(js), &h); err != nil {
		return h.Config, nil, fmt.Errorf("%s: dump header: %w", vPath, err)
	}
	_, lib, err := h.Config.Library()
	if err != nil {
		return h.Config, nil, fmt.Errorf("%s: %w", vPath, err)
	}
	d, err := netlist.ParseVerilog(br, func(cell, pin string) bool {
		c := lib.Cell(cell)
		return c != nil && slices.Contains(c.Outputs, pin)
	})
	if err != nil {
		return h.Config, nil, fmt.Errorf("%s: %w", vPath, err)
	}
	for i := range d.Instances {
		if inst := &d.Instances[i]; lib.Cell(inst.CellName) == nil {
			return h.Config, nil, fmt.Errorf("%s: instance %s: %s is no cell of the %v %v library",
				vPath, inst.Name, cmp.Or(inst.CellName, inst.Func), h.Config.Node, h.Config.Mode)
		}
	}
	d.TargetClockPs = h.ClockPs
	df, err := os.Open(defPath)
	if err != nil {
		return h.Config, nil, err
	}
	defer df.Close()
	pl, err := place.ReadDEF(df, d)
	if err != nil {
		return h.Config, nil, fmt.Errorf("%s: %w", defPath, err)
	}
	return h.Config, pl, nil
}
